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

// TestLRU pins what the store and the memo shards rely on beyond plain
// recency: Peek leaves the order alone, Add reports the one value it
// evicts, and Remove unlinks a value wherever it sits.
func TestLRU(t *testing.T) {
	l := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		if _, evicted := l.Add(k, i); evicted {
			t.Fatalf("Add(%s) evicted below capacity", k)
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
	if v, evicted := l.Add("d", 3); !evicted || v != 1 {
		t.Errorf("Add(d) at capacity = %d, %v; want b's value 1 evicted", v, evicted)
	}
	if _, evicted := l.Add("a", 9); evicted {
		t.Error("updating a held key evicted a value")
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
