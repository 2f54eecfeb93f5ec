package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/taskgen"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// Analyzer-level microbenchmarks on the paper's default platform
// (4 cores, 8 tasks per core): the acceptance bar for the interference
// tables is ≥3× over the retained naive reference with persistence on.
// Utilizations are chosen per (arbiter, persistence) pair so the fixed
// point converges — the converging regime is where virtually all sweep
// time is spent; aborting points cost microseconds either way. The
// persistence-oblivious bound is more pessimistic, so it needs lighter
// sets; TDMA's (m−1)·s slot-wait factor rejects everything heavier
// still. FP and RR carry the speedup bar: TDMA reads few pairs and
// converges in two rounds, so its cost is dominated by the one-time γ
// set work both implementations share. Run with:
//
//	go test ./internal/core -bench 'Analyze' -benchmem

func benchUtil(arb Arbiter, persistence bool) float64 {
	switch {
	case !persistence:
		return 0.15
	case arb == TDMA:
		return 0.2
	default:
		return 0.3
	}
}

func benchSet(b testing.TB, util float64) *taskmodel.TaskSet {
	b.Helper()
	cfg := taskgen.DefaultConfig()
	cfg.TasksPerCore = 8
	cfg.CoreUtilization = util
	pool, err := taskgen.PoolFromSuite(cfg.Platform.Cache)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// benchOp times op over b.N iterations, allocations reported, behind
// one untimed warm-up call: CI runs every benchmark at -benchtime 1x,
// and the single timed call must not also pay for filling the engine's
// pooled scratch, or its allocation count would depend on what earlier
// benchmarks left in the pool.
func benchOp(b *testing.B, op func() error) {
	b.Helper()
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAnalyze(b *testing.B, arb Arbiter) {
	for _, p := range []bool{false, true} {
		name := "base"
		if p {
			name = "persistence"
		}
		ts := benchSet(b, benchUtil(arb, p))
		b.Run(name, func(b *testing.B) {
			cfg := Config{Arbiter: arb, Persistence: p}
			benchOp(b, func() error {
				res, err := Analyze(ts, cfg, Options{})
				if err == nil && !res.Complete {
					b.Fatal("benchmark workload must converge; retune benchUtil")
				}
				return err
			})
		})
	}
}

func BenchmarkAnalyzeFP(b *testing.B)   { benchAnalyze(b, FP) }
func BenchmarkAnalyzeRR(b *testing.B)   { benchAnalyze(b, RR) }
func BenchmarkAnalyzeTDMA(b *testing.B) { benchAnalyze(b, TDMA) }

// BenchmarkAnalyzeReference is the same workload on the naive
// recompute-everything implementation, for the speedup ratio.
func BenchmarkAnalyzeReference(b *testing.B) {
	for _, arb := range []Arbiter{FP, RR, TDMA} {
		ts := benchSet(b, benchUtil(arb, true))
		b.Run(arb.String(), func(b *testing.B) {
			cfg := Config{Arbiter: arb, Persistence: true}
			benchOp(b, func() error {
				_, err := AnalyzeReference(ts, cfg)
				return err
			})
		})
	}
}

// BenchmarkAnalyzeAllSharedTables measures the six-variant sweep
// workload (the per-point unit of Fig. 2) with tables shared across
// variants.
func BenchmarkAnalyzeAllSharedTables(b *testing.B) {
	ts := benchSet(b, 0.3)
	cfgs := []Config{
		{Arbiter: FP}, {Arbiter: FP, Persistence: true},
		{Arbiter: RR}, {Arbiter: RR, Persistence: true},
		{Arbiter: TDMA}, {Arbiter: TDMA, Persistence: true},
	}
	benchOp(b, func() error {
		_, err := AnalyzeAll(ts, cfgs)
		return err
	})
}

// BenchmarkAnalyzeAllCold is the memo-less batch layer (L3) at the
// shape of a Fig. 3a sweep call: 2..10 cores, the 0.05..1.00
// utilization grid and four sets per point, each analyzed under the six
// paper variants by AnalyzeBatchOpts without a store — the cold engine
// path of the experiments sweep. Generation stays outside the timer.
func BenchmarkAnalyzeAllCold(b *testing.B) {
	cfgs := deltaSweepConfigs()
	var reqs []BatchRequest
	for _, cores := range []int{2, 4, 6, 8, 10} {
		cfg := taskgen.DefaultConfig()
		cfg.Platform.NumCores = cores
		pool, err := taskgen.PoolFromSuite(cfg.Platform.Cache)
		if err != nil {
			b.Fatal(err)
		}
		for u := 1; u <= 20; u++ {
			cfg.CoreUtilization = float64(u) / 20
			for s := 0; s < 4; s++ {
				ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(int64(1000*cores+20*u+s))))
				if err != nil {
					b.Fatal(err)
				}
				reqs = append(reqs, BatchRequest{TS: ts, Cfgs: cfgs})
			}
		}
	}
	benchOp(b, func() error {
		_, err := AnalyzeBatchOpts(reqs, BatchOptions{})
		return err
	})
}

// The delta-sweep workload: the near-duplicate request stream that
// POST /v1/analyze/delta serves, scaled so that table-column and
// curve-backbone construction dominates wall-clock. 40 tasks per core
// puts ~160 tasks in the set (column and curve set-work grows with the
// cube of the per-core count, the fixed-point engine only with its
// square), and an 8192-set cache makes every cold column walk 128 bit
// words per intersection while the memoized path — whose digests hash
// only the nonzero words of each footprint — stays geometry-invariant.

func deltaSweepConfigs() []Config {
	return []Config{
		{Arbiter: FP}, {Arbiter: FP, Persistence: true},
		{Arbiter: RR}, {Arbiter: RR, Persistence: true},
		{Arbiter: TDMA}, {Arbiter: TDMA, Persistence: true},
	}
}

func deltaSweepSet(tb testing.TB) *taskmodel.TaskSet {
	tb.Helper()
	cfg := taskgen.DefaultConfig()
	cfg.TasksPerCore = 40
	cfg.CoreUtilization = 0.3
	cfg.Platform.Cache.NumSets = 8192
	pool, err := taskgen.PoolFromSuite(cfg.Platform.Cache)
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(7)))
	if err != nil {
		tb.Fatal(err)
	}
	return ts
}

// deltaSweepPass analyzes `steps` successive one-task
// processing-demand edits of base under the six-variant grid, against
// store — or, when store is nil, against a fresh store per analysis
// (the pre-memo behavior, with the column builds still observable as
// misses). step advances in place so consecutive passes keep producing
// never-before-seen variants.
func deltaSweepPass(tb testing.TB, base *taskmodel.TaskSet, cfgs []Config, store *MemoStore, obs *telemetry.Observer, step *int, steps int) {
	tb.Helper()
	mid := len(base.Tasks) / 2
	for s := 0; s < steps; s++ {
		ts := perturbPD(base, mid, taskmodel.Time(*step%1024))
		*step++
		st := store
		if st == nil {
			st = NewMemoStore(0)
		}
		if _, err := analyzeAllObs(ts, cfgs, obs, st); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkDeltaSweep measures the delta workload end to end: each
// iteration analyzes 16 rolling variants of the base set. "cold" gives
// every analysis a fresh store; "memo" shares one store, pre-warmed by
// the untimed pass both run first, and then measures only
// never-before-seen deltas — the steady state of a long-lived daemon,
// where the store serves every table column (the edit touches no field
// a column reads) and all but the perturbed core's same-source curve
// backbones. The wall-clock acceptance bar is memo ≥5× faster than
// cold, pinned by TestDeltaSweepWallClockSpeedup; columns/op and
// curves/op report the recomputation avoided.
func BenchmarkDeltaSweep(b *testing.B) {
	base := deltaSweepSet(b)
	cfgs := deltaSweepConfigs()
	const steps = 16
	run := func(b *testing.B, shared bool) {
		step := 0
		var store *MemoStore
		if shared {
			store = NewMemoStore(0)
		}
		// One untimed pass warms the store (memo) and the pooled
		// scratch (both).
		deltaSweepPass(b, base, cfgs, store, telemetry.New(), &step, steps)
		obs := telemetry.New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			deltaSweepPass(b, base, cfgs, store, obs, &step, steps)
		}
		b.ReportMetric(float64(obs.Metrics.Get(telemetry.CtrMemoMisses))/float64(b.N), "columns/op")
		b.ReportMetric(float64(obs.Metrics.Get(telemetry.CtrCurveMemoMisses))/float64(b.N), "curves/op")
	}
	b.Run("cold", func(b *testing.B) { run(b, false) })
	b.Run("memo", func(b *testing.B) { run(b, true) })
}

// TestDeltaSweepWallClockSpeedup is the acceptance gate on
// BenchmarkDeltaSweep's workload: the pre-warmed shared store must cut
// the rolling-delta sweep's wall-clock by at least 5× against the
// fresh-store baseline. Both sides take the best of three rounds to
// shed scheduler noise. Skipped under -short (the cold rounds are
// whole seconds) and under the race detector, whose instrumentation
// taxes the two paths asymmetrically.
func TestDeltaSweepWallClockSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second timing gate; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock ratios are meaningless under the race detector")
	}
	base := deltaSweepSet(t)
	cfgs := deltaSweepConfigs()
	const steps, rounds = 8, 3
	step := 0
	minDur := func(store *MemoStore) time.Duration {
		var best time.Duration
		for r := 0; r < rounds; r++ {
			start := time.Now()
			deltaSweepPass(t, base, cfgs, store, nil, &step, steps)
			if d := time.Since(start); r == 0 || d < best {
				best = d
			}
		}
		return best
	}
	cold := minDur(nil)
	store := NewMemoStore(0)
	deltaSweepPass(t, base, cfgs, store, nil, &step, steps) // pre-warm
	memo := minDur(store)
	ratio := float64(cold) / float64(memo)
	if ratio < 5 {
		t.Errorf("memoized delta sweep %.2fx faster than cold (cold %v, memo %v); want >= 5x", ratio, cold, memo)
	}
	t.Logf("delta sweep wall-clock: cold=%v memo=%v (%.1fx)", cold, memo, ratio)
}

// BenchmarkCanonicalKey keys the edit-shape set (BenchmarkDeltaSweep's
// ~160 tasks over an 8192-set cache) under the six paper variants: the
// per-request hashing cost every /v1/analyze and every delta pays.
func BenchmarkCanonicalKey(b *testing.B) {
	ts := deltaSweepSet(b)
	cfgs := deltaSweepConfigs()
	benchOp(b, func() error {
		keySink = CanonicalKey(ts, cfgs)
		return nil
	})
}

// keySink keeps the compiler from dropping a benchmarked key.
var keySink string

// BenchmarkFixedPoint is the per-task fixed point (L2) alone: the
// edit-shape set under FP-CP over tables whose columns and backbones
// the untimed first call materialized, so an op is cursor resets and
// inner iterations for every task of the outer loop. iterations/op
// and jumps/op are that call's inner iterates and breakpoint jumps.
func BenchmarkFixedPoint(b *testing.B) {
	ts := deltaSweepSet(b)
	cfg := Config{Arbiter: FP, Persistence: true}
	tbl := precomputeTables(ts, cfg.CRPD)
	var sc analysisScratch
	run := func(obs *telemetry.Observer) {
		a := newAnalyzerChecked(ts, cfg, tbl)
		a.obs = obs
		a.fps = sc.takeFPS(len(ts.Tasks))
		a.rd = sc.takeRD(len(ts.Tasks))
		a.Run()
	}
	obs := telemetry.New()
	run(obs) // materializes the tables and counts one op's iterates
	benchOp(b, func() error {
		run(nil)
		return nil
	})
	b.ReportMetric(float64(obs.Metrics.Get(telemetry.CtrInnerIterations)), "iterations/op")
	b.ReportMetric(float64(obs.Metrics.Get(telemetry.CtrBreakpointJumps)), "jumps/op")
}

// BenchmarkMemoStore is the store's own bookkeeping, without any
// column work: "hit" reads resident keys from shards above half full,
// so every hit moves its entry to the front; "miss" cycles through
// twice the capacity, so every call inserts an entry and evicts the
// coldest. Both are on the memo path of every memo-attached analysis.
// The store's budget holds exactly capacity empty columns.
func BenchmarkMemoStore(b *testing.B) {
	const capacity = 4096
	keys := make([]memoKey, 2*capacity)
	for i := range keys {
		keys[i][0], keys[i][1], keys[i][2] = byte(i), byte(i>>8), byte(i>>16)
	}
	val := &memoColumn{}
	compute := func() any { return val }
	run := func(b *testing.B, keys []memoKey) {
		store := NewMemoStore(capacity * memoEntryOverhead)
		for _, k := range keys {
			store.getOrCompute(k, columnCounters, nil, compute)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store.getOrCompute(keys[i%len(keys)], columnCounters, nil, compute)
		}
	}
	b.Run("hit", func(b *testing.B) { run(b, keys[:capacity*3/4]) })
	b.Run("miss", func(b *testing.B) { run(b, keys) })
}
