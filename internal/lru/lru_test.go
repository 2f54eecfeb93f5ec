package lru

import (
	"reflect"
	"testing"
)

// order lists the held keys, most recently used first.
func order(l *LRU[string, int]) []string {
	var keys []string
	l.Each(func(k string, _ int) { keys = append(keys, k) })
	return keys
}

// collect returns an eviction callback appending to *dropped.
func collect(dropped *[]int) func(int) {
	return func(v int) { *dropped = append(*dropped, v) }
}

// TestLRU pins what the store and the memo shards rely on beyond plain
// recency: Peek leaves the order alone, Add reports the value it
// evicts, and Remove unlinks a value wherever it sits.
func TestLRU(t *testing.T) {
	l := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		var dropped []int
		l.Add(k, i, 1, collect(&dropped))
		if len(dropped) != 0 {
			t.Fatalf("Add(%s) evicted %v below capacity", k, dropped)
		}
	}
	if v, ok := l.Peek("a"); !ok || v != 0 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	if got, want := order(l), []string{"c", "b", "a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("after Peek: order %v, want %v (Peek must not touch)", got, want)
	}
	if v, ok := l.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if got, want := order(l), []string{"a", "c", "b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("after Get: order %v, want %v", got, want)
	}
	var dropped []int
	l.Add("d", 3, 1, collect(&dropped))
	if !reflect.DeepEqual(dropped, []int{1}) {
		t.Errorf("Add(d) at capacity evicted %v; want b's value 1", dropped)
	}
	dropped = nil
	l.Add("a", 9, 1, collect(&dropped))
	if len(dropped) != 0 {
		t.Errorf("updating a held key evicted %v", dropped)
	}
	l.Remove("c")
	l.Remove("missing")
	if got, want := order(l), []string{"a", "d"}; !reflect.DeepEqual(got, want) || l.Len() != 2 {
		t.Errorf("after Remove: order %v len %d, want %v", got, l.Len(), want)
	}
	if v, _ := l.Get("a"); v != 9 {
		t.Errorf("a = %d, want the updated 9", v)
	}
	if _, ok := l.Get("c"); ok {
		t.Error("removed key still held")
	}
}

// TestLRUBytes pins the byte bound: an Add evicts from the tail until
// the total fits, however many values that takes; a value larger than
// the whole bound is not stored; an update re-accounts the value's
// size; and Remove subtracts it.
func TestLRUBytes(t *testing.T) {
	l := New[string, int](100)
	for i, k := range []string{"a", "b", "c", "d"} {
		l.Add(k, i, 20, nil)
	}
	if l.Bytes() != 80 || l.Len() != 4 {
		t.Fatalf("after four 20 B adds: %d B in %d values, want 80 B in 4", l.Bytes(), l.Len())
	}

	// 60 B more must drop the two oldest (a, b): one is not enough.
	var dropped []int
	l.Add("e", 4, 60, collect(&dropped))
	if !reflect.DeepEqual(dropped, []int{0, 1}) {
		t.Errorf("Add(e, 60 B) evicted %v, want a and b (0, 1)", dropped)
	}
	if got, want := order(l), []string{"e", "d", "c"}; !reflect.DeepEqual(got, want) || l.Bytes() != 100 {
		t.Errorf("after Add(e): order %v at %d B, want %v at 100 B", got, l.Bytes(), want)
	}

	// Oversized: not stored, nothing evicted, and a value already held
	// under the key goes too (its old size must not linger).
	dropped = nil
	l.Add("huge", 5, 101, collect(&dropped))
	if _, ok := l.Peek("huge"); ok || len(dropped) != 0 || l.Bytes() != 100 {
		t.Errorf("oversized add: held %v, evicted %v, %d B; want nothing changed", ok, dropped, l.Bytes())
	}
	l.Add("c", 6, 200, nil)
	if _, ok := l.Peek("c"); ok || l.Bytes() != 80 {
		t.Errorf("after oversized update of c: held %v at %d B, want c dropped and 80 B", ok, l.Bytes())
	}

	// An update re-accounts: growing d from 20 to 50 B evicts e (the
	// tail once d moves to the front), shrinking it frees the room.
	dropped = nil
	l.Add("d", 7, 50, collect(&dropped))
	if !reflect.DeepEqual(dropped, []int{4}) || l.Bytes() != 50 {
		t.Errorf("growing d to 50 B: evicted %v at %d B, want e (4) at 50 B", dropped, l.Bytes())
	}
	l.Add("d", 8, 10, nil)
	if l.Bytes() != 10 {
		t.Errorf("shrinking d to 10 B: total %d B, want 10", l.Bytes())
	}

	l.Remove("d")
	if l.Bytes() != 0 || l.Len() != 0 {
		t.Errorf("after Remove(d): %d B in %d values, want empty", l.Bytes(), l.Len())
	}

	off := New[string, int](0)
	if off.Add("a", 1, 0, nil); off.Len() != 0 {
		t.Error("a zero-byte bound stored a value")
	}
}
