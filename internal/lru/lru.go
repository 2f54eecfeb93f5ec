// Package lru is the one bounded-store primitive of the repository: a
// map from key to node plus an intrusive doubly linked list of those
// nodes in recency order. Both the server's request store and each
// shard of core.MemoStore are an LRU with their own policy around it
// (what a value holds and weighs, when a hit is worth a move to the
// front, what an eviction is counted as), so the list does no locking
// of its own: the caller holds its lock across every call.
//
// The bound is a byte total, not an entry count: each value carries the
// size its owner charges for it, recorded when it is added, so one
// large value displaces many small ones and a store serving requests
// two orders of magnitude apart in size still stays within one budget.
package lru

// LRU holds values whose recorded sizes total at most a fixed number
// of bytes, evicting the least recently used until an Add fits. The
// zero value is not usable; call New.
type LRU[K comparable, V any] struct {
	max   int64
	bytes int64
	byKey map[K]*node[K, V]
	// root is the list sentinel: root.next is the most recently used
	// node, root.prev the least.
	root node[K, V]
}

type node[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *node[K, V]
}

// New returns an empty LRU bounded to maxBytes of recorded size; with
// maxBytes < 1 it holds nothing.
func New[K comparable, V any](maxBytes int64) *LRU[K, V] {
	l := &LRU[K, V]{max: maxBytes, byKey: make(map[K]*node[K, V])}
	l.root.next, l.root.prev = &l.root, &l.root
	return l
}

// Get returns the value under key and marks it most recently used.
func (l *LRU[K, V]) Get(key K) (V, bool) {
	n, ok := l.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveToFront(n)
	return n.val, true
}

// Peek returns the value under key without touching its recency.
func (l *LRU[K, V]) Peek(key K) (V, bool) {
	n, ok := l.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Add stores val under key as the most recently used value, charged
// size bytes, replacing (and re-accounting) any value already there.
// It then drops least recently used values until the byte total fits
// the bound, calling evicted (when non-nil) on each one dropped. A
// value larger than the whole bound (any value, when the bound is below
// one byte) is not stored, and any value held under key is dropped.
func (l *LRU[K, V]) Add(key K, val V, size int64, evicted func(V)) {
	if l.max < 1 || size > l.max {
		l.Remove(key)
		return
	}
	if n, ok := l.byKey[key]; ok {
		n.val = val
		l.bytes += size - n.size
		n.size = size
		l.moveToFront(n)
	} else {
		n := &node[K, V]{key: key, val: val, size: size}
		l.byKey[key] = n
		l.bytes += size
		l.insertFront(n)
	}
	for l.bytes > l.max {
		tail := l.root.prev
		l.drop(tail)
		if evicted != nil {
			evicted(tail.val)
		}
	}
}

// Remove drops the value under key, if any.
func (l *LRU[K, V]) Remove(key K) {
	if n, ok := l.byKey[key]; ok {
		l.drop(n)
	}
}

// Each calls f on every held value, most recently used first, without
// touching recency; f must not modify the LRU.
func (l *LRU[K, V]) Each(f func(K, V)) {
	for n := l.root.next; n != &l.root; n = n.next {
		f(n.key, n.val)
	}
}

// Len reports the number of values held.
func (l *LRU[K, V]) Len() int { return len(l.byKey) }

// Bytes reports the recorded sizes of the held values, summed.
func (l *LRU[K, V]) Bytes() int64 { return l.bytes }

func (l *LRU[K, V]) drop(n *node[K, V]) {
	l.unlink(n)
	delete(l.byKey, n.key)
	l.bytes -= n.size
}

func (l *LRU[K, V]) moveToFront(n *node[K, V]) {
	l.unlink(n)
	l.insertFront(n)
}

func (l *LRU[K, V]) insertFront(n *node[K, V]) {
	n.prev, n.next = &l.root, l.root.next
	n.next.prev = n
	l.root.next = n
}

func (l *LRU[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}
