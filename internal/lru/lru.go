// Package lru is the one bounded-store primitive of the repository: a
// map from key to node plus an intrusive doubly linked list of those
// nodes in recency order. Both the server's request store and each
// shard of core.MemoStore are an LRU with their own policy around it
// (what a value holds, when a hit is worth a move to the front, what an
// eviction is counted as), so the list does no locking and no
// accounting of its own: the caller holds its lock across every call.
package lru

// LRU holds at most a fixed number of values, evicting the least
// recently used when an Add would exceed it. The zero value is not
// usable; call New.
type LRU[K comparable, V any] struct {
	max   int
	byKey map[K]*node[K, V]
	// root is the list sentinel: root.next is the most recently used
	// node, root.prev the least.
	root node[K, V]
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New returns an empty LRU bounded to max values; with max < 1 it
// holds none.
func New[K comparable, V any](max int) *LRU[K, V] {
	l := &LRU[K, V]{max: max, byKey: make(map[K]*node[K, V])}
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

// Add stores val under key as the most recently used value, replacing
// any value already there. When that leaves more than the capacity, it
// drops the least recently used value and returns it with evicted set;
// a new value evicts at most one.
func (l *LRU[K, V]) Add(key K, val V) (dropped V, evicted bool) {
	if l.max < 1 {
		return dropped, false
	}
	if n, ok := l.byKey[key]; ok {
		n.val = val
		l.moveToFront(n)
		return dropped, false
	}
	n := &node[K, V]{key: key, val: val}
	l.byKey[key] = n
	l.insertFront(n)
	if len(l.byKey) <= l.max {
		return dropped, false
	}
	tail := l.root.prev
	l.unlink(tail)
	delete(l.byKey, tail.key)
	return tail.val, true
}

// Remove drops the value under key, if any.
func (l *LRU[K, V]) Remove(key K) {
	if n, ok := l.byKey[key]; ok {
		l.unlink(n)
		delete(l.byKey, key)
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
