package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterNamesComplete(t *testing.T) {
	for c := Counter(0); c < numCounters; c++ {
		if counterNames[c] == "" {
			t.Errorf("counter %d has no name", int(c))
		}
	}
	for h := HistID(0); h < numHists; h++ {
		if histNames[h] == "" {
			t.Errorf("histogram %d has no name", int(h))
		}
	}
}

func TestMetricsConcurrentAdds(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Add(CtrOuterRounds, 1)
				m.Observe(HistInnerIters, int64(i%7))
			}
		}()
	}
	wg.Wait()
	if got := m.Get(CtrOuterRounds); got != 8000 {
		t.Errorf("CtrOuterRounds = %d, want 8000", got)
	}
	if got := m.Hist(HistInnerIters).Snapshot().Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 8, 100, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if s.Max != 100 {
		t.Errorf("max = %d, want 100", s.Max)
	}
	// -5 clamps to 0: sum = 0+1+1+3+8+100+0.
	if s.Sum != 113 {
		t.Errorf("sum = %d, want 113", s.Sum)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Errorf("bucket total %d != count %d", total, s.Count)
	}
}

// TestHistogramObserveBucketBoundaries audits the bucket map of
// Observe one value at a time: bucket k is bits.Len64(v), so bucket 0
// holds only zeros (and clamped negatives), bucket k >= 1 holds
// [2^(k-1), 2^k), and the top bucket absorbs everything at or above
// 2^(histBuckets-1) instead of indexing out of range.
func TestHistogramObserveBucketBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		v      int64
		bucket int
		sum    int64 // after clamping
	}{
		{"zero", 0, 0, 0},
		{"negative clamps to zero", -17, 0, 0},
		{"one", 1, 1, 1},
		{"two", 2, 2, 2},
		{"bucket 2 upper edge", 3, 2, 3},
		{"bucket 3 lower edge", 4, 3, 4},
		{"power of two minus one", 1<<10 - 1, 10, 1<<10 - 1},
		{"power of two", 1 << 10, 11, 1 << 10},
		{"top bucket lower edge", 1 << (histBuckets - 2), histBuckets - 1, 1 << (histBuckets - 2)},
		{"first overflowing value", 1 << (histBuckets - 1), histBuckets - 1, 1 << (histBuckets - 1)},
		{"deep overflow", 1 << 50, histBuckets - 1, 1 << 50},
		{"max int64", math.MaxInt64, histBuckets - 1, math.MaxInt64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			h.Observe(tc.v)
			s := h.Snapshot()
			if s.Count != 1 {
				t.Fatalf("count = %d, want 1", s.Count)
			}
			if s.Sum != tc.sum {
				t.Errorf("sum = %d, want %d", s.Sum, tc.sum)
			}
			if s.Max != tc.sum {
				t.Errorf("max = %d, want %d", s.Max, tc.sum)
			}
			// Snapshot trims trailing zero buckets, so the single
			// observation's bucket must be the last one.
			if len(s.Buckets) != tc.bucket+1 {
				t.Fatalf("observation landed in bucket %d, want %d (buckets: %v)",
					len(s.Buckets)-1, tc.bucket, s.Buckets)
			}
			if s.Buckets[tc.bucket] != 1 {
				t.Errorf("bucket %d = %d, want 1 (buckets: %v)", tc.bucket, s.Buckets[tc.bucket], s.Buckets)
			}
		})
	}
}

func TestCountersMapOmitsZeros(t *testing.T) {
	m := NewMetrics()
	m.Add(CtrRuns, 3)
	c := m.Counters()
	if len(c) != 1 || c["analyzer.runs"] != 3 {
		t.Errorf("Counters() = %v, want only analyzer.runs=3", c)
	}
}

func TestWriteSummary(t *testing.T) {
	m := NewMetrics()
	m.Add(CtrBreakpointSnaps, 42)
	m.Observe(HistOuterRounds, 5)
	var b strings.Builder
	if err := m.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"fp.breakpoint_snaps", "42", "analyzer.outer_rounds_per_run"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	o.Add(CtrRuns, 1)
	o.Observe(HistInnerIters, 1)
	sp := o.Span("x", "y")
	sp.End()
	if o.Tracing() {
		t.Error("nil observer reports instrumentation enabled")
	}
	if o.WithTrack("w") != nil {
		t.Error("nil observer WithTrack != nil")
	}
}
