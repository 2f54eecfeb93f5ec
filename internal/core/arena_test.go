package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/crpd"
	"repro/internal/persistence"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// TestAnalyzeAllColdAllocs pins the allocation count of the memo-less
// engine: one AnalyzeAll of a generated 4-core, 32-task set under the
// six paper configurations, after a warm-up call that sizes the pooled
// scratch. Before the request-scoped table arena the call allocated
// 1087 times — an n×n pair block, per-level row slices, every curve
// backbone and one evictor list per CPRO pair; with the arena it
// allocated 106, and with the one (core, cutoff) slot layout it
// allocates 105: the tables' per-request index arrays and evicting
// unions, the analyzers and the results themselves. The ceiling, 150,
// is well under a seventh of the old count.
// Skipped under the race detector, which allocates on its own.
func TestAnalyzeAllColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const ceiling = 150
	ts := benchSet(t, 0.3)
	cfgs := deltaSweepConfigs()
	if _, err := AnalyzeAll(ts, cfgs); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := AnalyzeAll(ts, cfgs); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Errorf("memo-less AnalyzeAll allocates %v times per call, want <= %d", avg, ceiling)
	}
	t.Logf("memo-less AnalyzeAll: %v allocs per call", avg)
}

// arenaSet generates a task set with cores×perCore tasks at the given
// per-core utilization.
func arenaSet(t *testing.T, cores, perCore int, util float64, seed int64) *taskmodel.TaskSet {
	t.Helper()
	cfg := taskgen.DefaultConfig()
	cfg.Platform.NumCores = cores
	cfg.TasksPerCore = perCore
	cfg.CoreUtilization = util
	pool, err := taskgen.PoolFromSuite(cfg.Platform.Cache)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// snapshotCurves deep-copies every curve backbone published to store.
func snapshotCurves(store *MemoStore) map[memoKey][]termCurve {
	out := make(map[memoKey][]termCurve)
	for i := range store.shards {
		sh := &store.shards[i]
		sh.mu.Lock()
		sh.entries.Each(func(key memoKey, ent *memoEntry) {
			col, ok := ent.val.(*curveColumn)
			if !ok {
				return
			}
			terms := append([]termCurve(nil), col.terms...)
			for k := range terms {
				terms[k].evictors = append([]persistence.EvictorTerm(nil), terms[k].evictors...)
			}
			out[key] = terms
		})
		sh.mu.Unlock()
	}
	return out
}

// TestArenaIsolation runs requests of different shapes back to back on
// one goroutine, so the pooled table arena is carved at one size,
// reused at a smaller one and overwritten by later requests, and checks
// every result against the reference: n = 80, n = 16, n = 80 again, a
// request whose ECB-union and UCB-only configurations build two Tables
// (only the first may draw from the arena), a memo-attached request,
// several memo-less requests, and the memo-attached request again, now
// served from the store. The backbones the memo-attached request
// published must be unchanged by the memo-less churn in between: they
// live on the heap, never in the arena.
func TestArenaIsolation(t *testing.T) {
	paper := deltaSweepConfigs()
	mixed := []Config{
		{Arbiter: FP, Persistence: true, CPRO: persistence.MultisetUnion},
		{Arbiter: FP, Persistence: true, CRPD: crpd.UCBOnly, CPRO: persistence.MultisetUnion},
		{Arbiter: RR, Persistence: true, CRPD: crpd.UCBOnly},
		{Arbiter: RR},
		{Arbiter: TDMA, CRPD: crpd.UCBOnly},
	}
	check := func(step string, ts *taskmodel.TaskSet, cfgs []Config, store *MemoStore) *telemetry.Observer {
		t.Helper()
		obs := telemetry.New()
		got, err := analyzeAllObs(ts, cfgs, obs, store)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		for ci, cfg := range cfgs {
			want, err := AnalyzeReference(ts, cfg)
			if err != nil {
				t.Fatalf("%s: AnalyzeReference: %v", step, err)
			}
			if !reflect.DeepEqual(got[ci], want) {
				t.Errorf("%s %+v: result differs from the reference\n got: %+v\nwant: %+v", step, cfg, got[ci], want)
			}
		}
		return obs
	}
	big := arenaSet(t, 10, 8, 0.3, 1)
	small := arenaSet(t, 4, 4, 0.3, 2)
	check("n=80", big, paper, nil)
	check("n=16", small, paper, nil)
	check("n=80 again", big, paper, nil)
	// A light set, so that most configurations converge and a pair
	// column or backbone aliased between the two Tables would surface
	// in the WCRTs.
	check("mixed CRPD", arenaSet(t, 4, 8, 0.15, 3), mixed, nil)

	store := NewMemoStore(0)
	memoSet := arenaSet(t, 4, 8, 0.3, 3)
	check("memo", memoSet, paper, store)
	published := snapshotCurves(store)
	if len(published) == 0 {
		t.Fatal("memo-attached request published no curve backbones")
	}
	for seed := int64(4); seed < 8; seed++ {
		check("churn", arenaSet(t, 4, 8, 0.3, seed), paper, nil)
	}
	check("churn", big, mixed, nil)
	obs := check("memo again", memoSet, paper, store)
	if misses, hits := obs.Metrics.Get(telemetry.CtrCurveMemoMisses), obs.Metrics.Get(telemetry.CtrCurveMemoHits); misses != 0 || hits == 0 {
		t.Errorf("repeated memo-attached request: %d curve misses, %d hits; want 0 misses and some hits", misses, hits)
	}
	if after := snapshotCurves(store); !reflect.DeepEqual(after, published) {
		t.Error("published curve backbones changed across memo-less requests")
	}
}

// TestArenaStaysQuadratic pins the arena's size on a set with many
// tasks per core, 2 cores × 300 tasks, where the slot layout's evictor
// bound Σ_y Σ_k k·(|Γ_y|−1) is cubic (about 27 M entries, 430 MB). A
// persistence-oblivious request must size no evictor slab at all, a
// persistence-aware one at most evictorsPerEntry entries per CPRO
// column entry, and a memo-less persistence-oblivious AnalyzeAll must
// allocate no more than a few times its quadratic columns and
// backbones: Σ_y (|Γ_y|+1)·|Γ_y| entries each of a γ value, a CPRO
// entry and a backbone term.
func TestArenaStaysQuadratic(t *testing.T) {
	ts := arenaSet(t, 2, 300, 0.3, 1)
	n := len(ts.Tasks)
	tb := precomputeTables(ts, crpd.ECBUnion)
	entries, bound := 0, 0
	for _, refs := range tb.byCore {
		g := len(refs)
		entries += (g + 1) * g
		for k := 0; k <= g; k++ {
			bound += k * (g - 1)
		}
	}
	if bound <= 10*evictorsPerEntry*entries {
		t.Fatalf("evictor bound %d is not cubic for n = %d; the set does not exercise the cap", bound, n)
	}
	var sc analysisScratch
	if ar := sc.takeArena(tb, false); len(ar.evictors) != 0 {
		t.Errorf("persistence-oblivious request sized %d evictors, want 0", len(ar.evictors))
	}
	if ar := sc.takeArena(tb, true); len(ar.evictors) > evictorsPerEntry*entries {
		t.Errorf("persistence-aware request sized %d evictors, want <= %d", len(ar.evictors), evictorsPerEntry*entries)
	}

	limit := 3 * uint64(entries) * uint64(unsafe.Sizeof(int64(0))+unsafe.Sizeof(cproEntry{})+unsafe.Sizeof(termCurve{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := AnalyzeAll(ts, []Config{{Arbiter: FP}, {Arbiter: RR}}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("memo-less persistence-oblivious AnalyzeAll of %d tasks allocated %d MB, want <= %d MB", n, got>>20, limit>>20)
	} else {
		t.Logf("memo-less persistence-oblivious AnalyzeAll of %d tasks allocated %d MB (limit %d MB)", n, got>>20, limit>>20)
	}
}
