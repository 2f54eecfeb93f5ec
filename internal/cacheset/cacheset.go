// Package cacheset provides a dense bitset over cache-set indices.
//
// Throughout the analysis, the sets ECB (evicting cache blocks), UCB
// (useful cache blocks) and PCB (persistent cache blocks) of a task are
// represented as sets of cache-set indices of a direct-mapped cache,
// following the convention of Altmeyer et al. and Rashid et al.: for a
// direct-mapped cache every memory block occupies exactly one cache set,
// so interference between tasks is fully characterised by which cache
// sets their blocks map to.
package cacheset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a set of cache-set indices in [0, Capacity()).
// The zero value is an empty set with capacity 0; use New to create a
// set with a given capacity. All binary operations require operands of
// equal capacity and panic otherwise: mixing sets from caches of
// different geometries is always a bug in the caller.
type Set struct {
	n     int // capacity: number of cache sets
	words []uint64
}

// New returns an empty set able to hold indices [0, n).
func New(n int) Set {
	if n < 0 {
		panic("cacheset: negative capacity")
	}
	return Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Of returns a set with capacity n containing the given indices.
func Of(n int, idx ...int) Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// Capacity returns the number of cache sets the set ranges over.
func (s Set) Capacity() int { return s.n }

// Add inserts index i.
func (s Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("cacheset: index %d out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] |= 1 << (i % wordBits)
}

// Remove deletes index i if present.
func (s Set) Remove(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("cacheset: index %d out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] &^= 1 << (i % wordBits)
}

// Contains reports whether index i is in the set.
func (s Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// Count returns the cardinality |s|.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

func (s Set) check(t Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("cacheset: capacity mismatch %d != %d", s.n, t.n))
	}
}

// Union returns s ∪ t as a new set.
func (s Set) Union(t Set) Set {
	s.check(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] |= w
	}
	return r
}

// UnionInPlace sets s = s ∪ t, avoiding an allocation.
func (s Set) UnionInPlace(t Set) {
	s.check(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Intersect returns s ∩ t as a new set.
func (s Set) Intersect(t Set) Set {
	s.check(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] &= w
	}
	return r
}

// IntersectInPlace sets s = s ∩ t, avoiding an allocation.
func (s Set) IntersectInPlace(t Set) {
	s.check(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// Difference returns s \ t as a new set.
func (s Set) Difference(t Set) Set {
	s.check(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] &^= w
	}
	return r
}

// DifferenceInPlace sets s = s \ t, avoiding an allocation.
func (s Set) DifferenceInPlace(t Set) {
	s.check(t)
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// CopyFrom overwrites s with the contents of t, avoiding an allocation.
func (s Set) CopyFrom(t Set) {
	s.check(t)
	copy(s.words, t.words)
}

// Clear removes every element, keeping the capacity.
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// IntersectCount returns |s ∩ t| without allocating.
func (s Set) IntersectCount(t Set) int {
	s.check(t)
	c := 0
	for i, w := range t.words {
		c += bits.OnesCount64(s.words[i] & w)
	}
	return c
}

// IntersectCountUnion returns |s ∩ (t1 ∪ t2 ∪ …)| without
// materializing the union. It is the workhorse of the analyzer's
// precomputed interference tables, where terms of the form
// |PCB ∩ ∪ ECB_s| are needed for many task pairs.
func (s Set) IntersectCountUnion(ts ...Set) int {
	for _, t := range ts {
		s.check(t)
	}
	c := 0
	for i, w := range s.words {
		var u uint64
		for _, t := range ts {
			u |= t.words[i]
		}
		c += bits.OnesCount64(w & u)
	}
	return c
}

// Intersects reports whether s ∩ t is non-empty, without allocating.
func (s Set) Intersects(t Set) bool {
	s.check(t)
	for i, w := range t.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	s.check(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t hold exactly the same indices and
// capacity.
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Words exposes the set's backing bit words (little-endian set order)
// for read-only consumers — hashing a set's exact contents without
// enumerating its elements. The slice must not be mutated.
func (s Set) Words() []uint64 { return s.words }

// Indices returns the elements of s in increasing order.
func (s Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// String renders the set as {i1,i2,...} in increasing order, matching
// the notation used in the paper's Fig. 1.
func (s Set) String() string {
	idx := s.Indices()
	parts := make([]string, len(idx))
	for i, v := range idx {
		parts[i] = fmt.Sprint(v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// UnionAll returns the union of all given sets. All sets must share the
// same capacity; capacity n is used if the list is empty.
func UnionAll(n int, sets ...Set) Set {
	r := New(n)
	for _, s := range sets {
		r.UnionInPlace(s)
	}
	return r
}

// FromSorted builds a set of capacity n from an index slice in any
// order, duplicates allowed: adding to a bitset does not depend on
// order, so the slice is read as it is and never modified. It is how
// JSON decoding and table-driven tests build sets.
func FromSorted(n int, idx []int) Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}
