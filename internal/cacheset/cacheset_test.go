package cacheset

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(256)
	if got := s.Count(); got != 0 {
		t.Fatalf("Count() = %d, want 0", got)
	}
	if !s.IsEmpty() {
		t.Fatal("IsEmpty() = false, want true")
	}
	if s.Capacity() != 256 {
		t.Fatalf("Capacity() = %d, want 256", s.Capacity())
	}
}

func TestAddContainsRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("Contains(%d) before Add, want false", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) after Add = false", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) after Remove = true")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
	// Removing an absent element is a no-op.
	s.Remove(64)
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() after double Remove = %d, want 7", got)
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(256) on capacity-256 set did not panic")
		}
	}()
	New(256).Add(256)
}

func TestContainsOutOfRangeIsFalse(t *testing.T) {
	s := Of(10, 3)
	if s.Contains(-1) || s.Contains(10) || s.Contains(100) {
		t.Fatal("Contains out of range should be false, not panic")
	}
}

func TestOf(t *testing.T) {
	s := Of(16, 5, 6, 7, 8, 9, 10)
	want := []int{5, 6, 7, 8, 9, 10}
	if got := s.Indices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Indices() = %v, want %v", got, want)
	}
}

func TestUnionIntersectDifference(t *testing.T) {
	// ECB/PCB sets from the paper's Fig. 1 example.
	ecb2 := Of(16, 1, 2, 3, 4, 5, 6)
	pcb1 := Of(16, 5, 6, 7, 8, 10)

	union := ecb2.Union(pcb1)
	if got, want := union.Indices(), []int{1, 2, 3, 4, 5, 6, 7, 8, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Union = %v, want %v", got, want)
	}
	inter := ecb2.Intersect(pcb1)
	if got, want := inter.Indices(), []int{5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	if got := pcb1.IntersectCount(ecb2); got != 2 {
		t.Fatalf("IntersectCount = %d, want 2", got)
	}
	diff := pcb1.Difference(ecb2)
	if got, want := diff.Indices(), []int{7, 8, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Difference = %v, want %v", got, want)
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Union across capacities did not panic")
		}
	}()
	Of(16, 1).Union(Of(32, 1))
}

func TestSubsetEqual(t *testing.T) {
	a := Of(64, 1, 2, 3)
	b := Of(64, 1, 2, 3, 4)
	if !a.SubsetOf(b) {
		t.Fatal("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Fatal("b ⊆ a unexpected")
	}
	if !a.SubsetOf(a) {
		t.Fatal("a ⊆ a expected")
	}
	if a.Equal(b) {
		t.Fatal("a == b unexpected")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("a == clone(a) expected")
	}
	if a.Equal(Of(32, 1, 2, 3)) {
		t.Fatal("sets with different capacity must not be Equal")
	}
}

func TestIntersects(t *testing.T) {
	a := Of(128, 100)
	b := Of(128, 100, 101)
	c := Of(128, 101)
	if !a.Intersects(b) {
		t.Fatal("a ∩ b expected non-empty")
	}
	if a.Intersects(c) {
		t.Fatal("a ∩ c expected empty")
	}
}

func TestIntersectCountUnion(t *testing.T) {
	n := 8
	pcb := Of(n, 0, 1, 2, 3)
	e1 := Of(n, 1, 5)
	e2 := Of(n, 2, 3, 6)
	if got := pcb.IntersectCountUnion(e1, e2); got != 3 {
		t.Fatalf("IntersectCountUnion = %d, want 3", got)
	}
	if got := pcb.IntersectCountUnion(); got != 0 {
		t.Fatalf("empty union: %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("capacity mismatch must panic")
		}
	}()
	pcb.IntersectCountUnion(Of(16, 1))
}

func TestCloneIndependence(t *testing.T) {
	a := Of(16, 1)
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Fatal("mutating clone affected original")
	}
}

func TestString(t *testing.T) {
	if got := Of(16, 5, 6, 7).String(); got != "{5,6,7}" {
		t.Fatalf("String() = %q, want {5,6,7}", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Fatalf("empty String() = %q, want {}", got)
	}
}

func TestUnionAll(t *testing.T) {
	u := UnionAll(16, Of(16, 1), Of(16, 2), Of(16, 1, 3))
	if got, want := u.Indices(), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("UnionAll = %v, want %v", got, want)
	}
	if got := UnionAll(8).Count(); got != 0 {
		t.Fatalf("UnionAll() of nothing = %d elements, want 0", got)
	}
}

func TestFromSorted(t *testing.T) {
	// Unsorted input with duplicates, within one word and across a word
	// boundary; the input slice must be left as it was.
	for _, c := range []struct {
		n        int
		idx, set []int
	}{
		{16, []int{9, 3, 3, 1}, []int{1, 3, 9}},
		{65, []int{64, 0, 64, 63}, []int{0, 63, 64}},
	} {
		idx := slices.Clone(c.idx)
		if got := FromSorted(c.n, idx).Indices(); !reflect.DeepEqual(got, c.set) {
			t.Fatalf("FromSorted(%d, %v) = %v, want %v", c.n, c.idx, got, c.set)
		}
		if !slices.Equal(idx, c.idx) {
			t.Fatalf("FromSorted(%d, %v) modified its input to %v", c.n, c.idx, idx)
		}
	}
}

// randomSet builds a reproducible random set for property tests.
func randomSet(r *rand.Rand, n int) Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			s.Add(i)
		}
	}
	return s
}

// genTriple produces three random same-capacity sets for quick.Check
// properties that need multiple operands.
type triple struct{ a, b, c Set }

func genTriple(r *rand.Rand) triple {
	n := 1 + r.Intn(200)
	return triple{randomSet(r, n), randomSet(r, n), randomSet(r, n)}
}

func TestQuickSetAlgebra(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(genTriple(r))
		},
	}

	t.Run("union commutative", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			return tr.a.Union(tr.b).Equal(tr.b.Union(tr.a))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("intersect commutative", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			return tr.a.Intersect(tr.b).Equal(tr.b.Intersect(tr.a))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("union associative", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			return tr.a.Union(tr.b).Union(tr.c).Equal(tr.a.Union(tr.b.Union(tr.c)))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("distributivity", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			lhs := tr.a.Intersect(tr.b.Union(tr.c))
			rhs := tr.a.Intersect(tr.b).Union(tr.a.Intersect(tr.c))
			return lhs.Equal(rhs)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("de morgan via difference", func(t *testing.T) {
		// a \ (b ∪ c) == (a \ b) ∩ (a \ c)
		if err := quick.Check(func(tr triple) bool {
			lhs := tr.a.Difference(tr.b.Union(tr.c))
			rhs := tr.a.Difference(tr.b).Intersect(tr.a.Difference(tr.c))
			return lhs.Equal(rhs)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("inclusion-exclusion", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			return tr.a.Union(tr.b).Count() == tr.a.Count()+tr.b.Count()-tr.a.IntersectCount(tr.b)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("intersect count matches intersect", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			return tr.a.IntersectCount(tr.b) == tr.a.Intersect(tr.b).Count()
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("intersect count union matches materialized union", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			return tr.a.IntersectCountUnion(tr.b, tr.c) == tr.a.IntersectCount(tr.b.Union(tr.c))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("subset of union", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			u := tr.a.Union(tr.b)
			return tr.a.SubsetOf(u) && tr.b.SubsetOf(u)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("intersection subset", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			i := tr.a.Intersect(tr.b)
			return i.SubsetOf(tr.a) && i.SubsetOf(tr.b)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("indices roundtrip", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			return FromSorted(tr.a.Capacity(), tr.a.Indices()).Equal(tr.a)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestInPlaceVariantsMatchAllocating(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(genTriple(r))
		},
	}
	t.Run("intersect", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			got := tr.a.Clone()
			got.IntersectInPlace(tr.b)
			return got.Equal(tr.a.Intersect(tr.b))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("difference", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			got := tr.a.Clone()
			got.DifferenceInPlace(tr.b)
			return got.Equal(tr.a.Difference(tr.b))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("copy and clear", func(t *testing.T) {
		if err := quick.Check(func(tr triple) bool {
			got := tr.a.Clone()
			got.CopyFrom(tr.b)
			if !got.Equal(tr.b) {
				return false
			}
			got.Clear()
			return got.IsEmpty() && got.Capacity() == tr.b.Capacity()
		}, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestInPlaceCapacityMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(a, b Set){
		"IntersectInPlace":  func(a, b Set) { a.IntersectInPlace(b) },
		"DifferenceInPlace": func(a, b Set) { a.DifferenceInPlace(b) },
		"CopyFrom":          func(a, b Set) { a.CopyFrom(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s across capacities did not panic", name)
				}
			}()
			f(New(64), New(128))
		}()
	}
}

// TestHotOpsDoNotAllocate pins the allocation-free contract of the
// operations used inside the analyzer's fixed-point loop and table
// fills: counting intersections and mutating in place must never
// touch the heap.
func TestHotOpsDoNotAllocate(t *testing.T) {
	a := Of(256, 1, 64, 65, 130, 200, 255)
	b := Of(256, 0, 64, 129, 130, 254)
	c := Of(256, 2, 65, 128, 200)
	scratch := New(256)
	sink := 0
	for name, f := range map[string]func(){
		"IntersectCount":      func() { sink += a.IntersectCount(b) },
		"IntersectCountUnion": func() { sink += a.IntersectCountUnion(b, c) },
		"Intersects": func() {
			if a.Intersects(b) {
				sink++
			}
		},
		"Count": func() { sink += a.Count() },
		"SubsetOf": func() {
			if a.SubsetOf(b) {
				sink++
			}
		},
		"Equal": func() {
			if a.Equal(b) {
				sink++
			}
		},
		"UnionInPlace":      func() { scratch.UnionInPlace(b) },
		"IntersectInPlace":  func() { scratch.IntersectInPlace(c) },
		"DifferenceInPlace": func() { scratch.DifferenceInPlace(b) },
		"CopyFrom":          func() { scratch.CopyFrom(a) },
		"Clear":             func() { scratch.Clear() },
	} {
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, avg)
		}
	}
	_ = sink
}

// model is the reference semantics of a Set: a plain map of members.
type model map[int]bool

func randomMembers(r *rand.Rand, n int) model {
	m := model{}
	density := r.Float64()
	for i := 0; i < n; i++ {
		if r.Float64() < density {
			m[i] = true
		}
	}
	return m
}

func (m model) set(n int) Set {
	s := New(n)
	for i := range m {
		s.Add(i)
	}
	return s
}

// matches reports whether s holds exactly the members of m: membership
// of every index, the count (which also catches stray bits past the
// capacity) and the ascending index list.
func (m model) matches(s Set, n int) bool {
	if s.Capacity() != n || s.Count() != len(m) || s.IsEmpty() != (len(m) == 0) {
		return false
	}
	for i := 0; i < n; i++ {
		if s.Contains(i) != m[i] {
			return false
		}
	}
	idx := s.Indices()
	for k := 1; k < len(idx); k++ {
		if idx[k-1] >= idx[k] {
			return false
		}
	}
	return len(idx) == len(m)
}

func (m model) union(o model) model {
	out := model{}
	for i := range m {
		out[i] = true
	}
	for i := range o {
		out[i] = true
	}
	return out
}

func (m model) intersect(o model) model {
	out := model{}
	for i := range m {
		if o[i] {
			out[i] = true
		}
	}
	return out
}

func (m model) difference(o model) model {
	out := model{}
	for i := range m {
		if !o[i] {
			out[i] = true
		}
	}
	return out
}

// TestDenseMatchesMapModel checks the dense set against a map model on
// random sets, including capacities at and around the 64-bit word
// boundaries, for the set algebra, the counting queries and the
// in-place operations; the operands of the allocating operations must
// come out unchanged.
func TestDenseMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 256}
	for iter := 0; iter < 600; iter++ {
		n := sizes[iter%len(sizes)]
		if iter >= 2*len(sizes) {
			n = r.Intn(300)
		}
		ma, mb := randomMembers(r, n), randomMembers(r, n)
		if r.Intn(4) == 0 {
			mb = ma.union(model{})
		}
		a, b := ma.set(n), mb.set(n)
		fail := func(op string) {
			t.Fatalf("n=%d %s: a=%v b=%v", n, op, a, b)
		}

		if !ma.union(mb).matches(a.Union(b), n) {
			fail("Union")
		}
		if !ma.intersect(mb).matches(a.Intersect(b), n) {
			fail("Intersect")
		}
		if !ma.difference(mb).matches(a.Difference(b), n) {
			fail("Difference")
		}
		if !ma.matches(a, n) || !mb.matches(b, n) {
			fail("operands mutated")
		}
		both := len(ma.intersect(mb))
		if a.IntersectCount(b) != both || a.Intersects(b) != (both > 0) {
			fail("IntersectCount")
		}
		if a.Count() != len(ma) {
			fail("Count")
		}
		sameMembers := len(ma) == len(mb) && both == len(ma)
		if a.Equal(b) != sameMembers || !a.Equal(a.Clone()) {
			fail("Equal")
		}
		if a.SubsetOf(b) != (both == len(ma)) {
			fail("SubsetOf")
		}

		in := a.Clone()
		in.IntersectInPlace(b)
		if !ma.intersect(mb).matches(in, n) {
			fail("IntersectInPlace")
		}
		in.CopyFrom(a)
		if !ma.matches(in, n) {
			fail("CopyFrom")
		}
		in.DifferenceInPlace(b)
		if !ma.difference(mb).matches(in, n) {
			fail("DifferenceInPlace")
		}
		in.UnionInPlace(b)
		if !ma.difference(mb).union(mb).matches(in, n) {
			fail("UnionInPlace")
		}
		in.Clear()
		if !(model{}).matches(in, n) {
			fail("Clear")
		}
		if !ma.matches(a, n) || !mb.matches(b, n) {
			fail("in-place op mutated its argument")
		}
	}
}

// --- micro-benchmarks ---------------------------------------------------------

func benchSets(nsets, footprint int) (Set, Set) {
	r := rand.New(rand.NewSource(1))
	var ai, bi []int
	for i := 0; i < footprint; i++ {
		ai = append(ai, r.Intn(nsets))
		bi = append(bi, r.Intn(nsets))
	}
	return FromSorted(nsets, ai), FromSorted(nsets, bi)
}

func BenchmarkDenseIntersectCount(b *testing.B) {
	da, db := benchSets(1024, 40)
	_ = da.IntersectCount(db) // untimed warm-up for -benchtime 1x
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = da.IntersectCount(db)
	}
}

func BenchmarkDenseUnion(b *testing.B) {
	da, db := benchSets(1024, 40)
	_ = da.Union(db) // untimed warm-up for -benchtime 1x
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = da.Union(db)
	}
}
