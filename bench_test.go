// Benchmarks regenerating every table and figure of the paper's
// evaluation (small sample sizes; the cmd/experiments binary runs the
// full-scale versions), plus ablation benches for the design choices
// called out in DESIGN.md.
package buscon_test

import (
	"io"
	"math/rand"
	"testing"

	buscon "repro"
	"repro/internal/core"
	"repro/internal/crpd"
	"repro/internal/experiments"
	"repro/internal/opa"
	"repro/internal/persistence"
	"repro/internal/sim"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

// benchOpts keeps per-iteration cost low while still sweeping the full
// parameter grids of the paper.
func benchOpts() experiments.Options {
	base := taskgen.DefaultConfig()
	base.Platform.NumCores = 2
	base.TasksPerCore = 4
	return experiments.Options{
		TaskSetsPerPoint: 3,
		Seed:             42,
		Utilizations:     []float64{0.2, 0.4, 0.6, 0.8},
		Base:             base,
	}
}

// benchOp times op over b.N iterations behind one untimed warm-up
// call. CI runs every benchmark at -benchtime 1x, and without the
// warm-up that single timed call would also pay the first-use costs
// later iterations skip — the static-analysis pools behind
// taskgen.PoolFromSuite, the engine's pooled scratch — so its time and
// allocation count would depend on what earlier benchmarks left behind.
func benchOp(b *testing.B, op func() error) {
	b.Helper()
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I: static analysis of all sixteen
// benchmarks at the default geometry.
func BenchmarkTable1(b *testing.B) {
	cache := taskmodel.CacheConfig{NumSets: 256, BlockSizeBytes: 32}
	benchOp(b, func() error {
		rows, err := experiments.Table1(cache)
		if err != nil {
			return err
		}
		return experiments.RenderTable1(io.Discard, rows)
	})
}

func benchFig2(b *testing.B, arb core.Arbiter) {
	opts := benchOpts()
	benchOp(b, func() error {
		_, err := experiments.Fig2(arb, opts)
		return err
	})
}

// BenchmarkFig2a: schedulability vs utilization, FP bus.
func BenchmarkFig2a(b *testing.B) { benchFig2(b, core.FP) }

// BenchmarkFig2b: schedulability vs utilization, RR bus.
func BenchmarkFig2b(b *testing.B) { benchFig2(b, core.RR) }

// BenchmarkFig2c: schedulability vs utilization, TDMA bus.
func BenchmarkFig2c(b *testing.B) { benchFig2(b, core.TDMA) }

// BenchmarkFig3a: weighted schedulability vs number of cores.
func BenchmarkFig3a(b *testing.B) {
	opts := benchOpts()
	benchOp(b, func() error {
		_, err := experiments.Fig3a(opts)
		return err
	})
}

// BenchmarkFig3b: weighted schedulability vs memory reload time.
func BenchmarkFig3b(b *testing.B) {
	opts := benchOpts()
	benchOp(b, func() error {
		_, err := experiments.Fig3b(opts)
		return err
	})
}

// BenchmarkFig3c: weighted schedulability vs cache size (parameters
// re-derived per geometry).
func BenchmarkFig3c(b *testing.B) {
	opts := benchOpts()
	benchOp(b, func() error {
		_, err := experiments.Fig3c(opts)
		return err
	})
}

// BenchmarkFig3d: weighted schedulability vs RR/TDMA slot size.
func BenchmarkFig3d(b *testing.B) {
	opts := benchOpts()
	benchOp(b, func() error {
		_, err := experiments.Fig3d(opts)
		return err
	})
}

// --- ablations --------------------------------------------------------------

func benchTaskSet(b *testing.B) *buscon.TaskSet {
	b.Helper()
	plat := buscon.DefaultPlatform()
	pool, err := buscon.BenchmarkPool(plat.Cache)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := buscon.GenerateTaskSet(buscon.GenConfig{
		Platform: plat, TasksPerCore: 8, CoreUtilization: 0.5,
	}, pool, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// BenchmarkAblationCRPD compares the CRPD approaches (the paper uses
// ECB-union) under the RR-CP analysis.
func BenchmarkAblationCRPD(b *testing.B) {
	ts := benchTaskSet(b)
	for _, ap := range []crpd.Approach{crpd.ECBUnion, crpd.UCBOnly, crpd.ECBOnly, crpd.UCBUnion, crpd.Combined} {
		b.Run(ap.String(), func(b *testing.B) {
			benchOp(b, func() error {
				_, err := core.Analyze(ts, core.Config{Arbiter: core.RR, Persistence: true, CRPD: ap}, core.Options{})
				return err
			})
		})
	}
}

// BenchmarkAblationCPRO compares the CPRO accountings (the paper uses
// CPRO-union; FullReload is the pessimistic bound, None the
// optimistic-unsound reference).
func BenchmarkAblationCPRO(b *testing.B) {
	ts := benchTaskSet(b)
	for _, ap := range []persistence.CPROApproach{persistence.Union, persistence.MultisetUnion, persistence.FullReload, persistence.None} {
		b.Run(ap.String(), func(b *testing.B) {
			benchOp(b, func() error {
				_, err := core.Analyze(ts, core.Config{Arbiter: core.RR, Persistence: true, CPRO: ap}, core.Options{})
				return err
			})
		})
	}
}

// BenchmarkAblationArbiter compares the raw analysis cost of each bus
// policy with persistence on and off.
func BenchmarkAblationArbiter(b *testing.B) {
	ts := benchTaskSet(b)
	for _, arb := range buscon.Arbiters() {
		for _, p := range []bool{false, true} {
			name := arb.String()
			if p {
				name += "-CP"
			}
			b.Run(name, func(b *testing.B) {
				benchOp(b, func() error {
					_, err := core.Analyze(ts, core.Config{Arbiter: arb, Persistence: p}, core.Options{})
					return err
				})
			})
		}
	}
}

// BenchmarkRegulatedSweep is a regulation-parameter design sweep on
// one task set — the regulated analogue of the slot-size sweep of
// Fig. 3d. Every (Q, P) point rebuilds the platform but reuses the
// task list; the per-point cost is dominated by the regulated BAT
// path and its replenishment breakpoints, which is exactly the new
// code the CI bench gate should watch.
func BenchmarkRegulatedSweep(b *testing.B) {
	ts := benchTaskSet(b)
	budgets := []int64{1, 2, 4, 8}
	periods := []buscon.Time{50, 100, 200}
	benchOp(b, func() error {
		for _, q := range budgets {
			for _, p := range periods {
				plat := ts.Platform
				plat.RegBudget, plat.RegPeriod = q, p
				point := buscon.NewTaskSet(plat, ts.Tasks)
				if _, err := core.Analyze(point, core.Config{Arbiter: core.Regulated, Persistence: true}, core.Options{}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// BenchmarkSimulator measures the cycle-accurate simulator on a small
// generated workload (one hyper-ish window under RR arbitration).
func BenchmarkSimulator(b *testing.B) {
	cfg := taskgen.Config{
		Platform: taskmodel.Platform{
			NumCores: 2,
			Cache:    taskmodel.CacheConfig{NumSets: 64, BlockSizeBytes: 32},
			DMem:     5,
			SlotSize: 2,
		},
		TasksPerCore:    3,
		CoreUtilization: 0.3,
	}
	// The first five small-trace benchmarks keep a bench iteration cheap.
	pool, err := sim.Pool(sim.SmallBenchmarks[:5], cfg.Platform.Cache)
	if err != nil {
		b.Fatal(err)
	}
	w, err := sim.GenerateWorkload(cfg, pool, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchOp(b, func() error {
		_, err := sim.Run(cfg.Platform, w.Bindings, sim.Config{Policy: core.RR, Horizon: w.Horizon})
		return err
	})
}

// --- extension benches -------------------------------------------------------

// BenchmarkExtAssoc runs the cache-organisation extension study.
func BenchmarkExtAssoc(b *testing.B) {
	benchOp(b, func() error {
		_, err := experiments.ExtAssociativity()
		return err
	})
}

// BenchmarkExtCRPD runs the CRPD-approach ablation study.
func BenchmarkExtCRPD(b *testing.B) {
	opts := benchOpts()
	benchOp(b, func() error {
		_, err := experiments.ExtCRPD(opts)
		return err
	})
}

// BenchmarkExtPartition runs the partitioning-heuristic study.
func BenchmarkExtPartition(b *testing.B) {
	opts := benchOpts()
	benchOp(b, func() error {
		_, err := experiments.ExtPartition(opts)
		return err
	})
}

// BenchmarkOPA measures Audsley's assignment search on a 16-task set.
func BenchmarkOPA(b *testing.B) {
	ts := benchTaskSet(b)
	cfg := core.Config{Arbiter: core.RR, Persistence: true}
	benchOp(b, func() error {
		_, err := opa.Assign(ts, cfg)
		return err
	})
}

// BenchmarkSensitivity measures the d_mem edge search.
func BenchmarkSensitivity(b *testing.B) {
	plat := buscon.DefaultPlatform()
	plat.NumCores = 2
	pool, err := buscon.BenchmarkPool(plat.Cache)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := buscon.GenerateTaskSet(buscon.GenConfig{
		Platform: plat, TasksPerCore: 4, CoreUtilization: 0.25,
	}, pool, rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Arbiter: core.RR, Persistence: true}
	benchOp(b, func() error {
		_, err := core.MaxDMem(ts, cfg, 1<<14, core.Options{})
		return err
	})
}
