package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
)

// TestAnalysisDominatesSimulation is the repository's end-to-end
// soundness check, run on the campaign driver: for randomly generated
// workloads whose tasks run the very programs their parameters were
// extracted from, every bound claimed by an analysis variant of every
// simulated arbiter must dominate the largest response time observed
// in simulation — including the persistence-aware variants, whose
// bounds are tighter. The analysis assumes neither task phasing nor
// more than the minimum separation T, so the bounds must hold under
// skewed first releases and stretched sporadic arrivals too.
func TestAnalysisDominatesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation soundness sweep skipped in -short mode")
	}
	var analyses []core.Config
	for _, arb := range core.Arbiters() {
		if arb == core.Perfect {
			continue // no bus to simulate
		}
		analyses = append(analyses,
			core.Config{Arbiter: arb},
			core.Config{Arbiter: arb, Persistence: true},
			core.Config{Arbiter: arb, Persistence: true, CPRO: persistence.MultisetUnion})
	}
	for _, tc := range []struct {
		name     string
		seeds    int64 // case seeds 0..seeds-1
		drawBase int64 // the workload of case seed s is drawn with seed drawBase+s
		util     func(seed int64) float64
		jobs     int
		modes    func(w *Workload, seed int64) []Config
	}{
		{
			name: "synchronous", seeds: 12,
			util: func(seed int64) float64 { return 0.15 + 0.05*float64(seed%5) },
			jobs: 3,
			modes: func(w *Workload, _ int64) []Config {
				return []Config{{Horizon: w.Horizon}}
			},
		},
		{
			name: "offsets", seeds: 6, drawBase: 100,
			util: func(int64) float64 { return 0.25 },
			jobs: 3,
			modes: func(w *Workload, seed int64) []Config {
				at := func(i int64) taskmodel.Time { return taskmodel.Time((seed*37 + i*113) % 500) }
				return []Config{{Horizon: w.Horizon, Offsets: w.Offsets(at)}}
			},
		},
		{
			name: "sporadic", seeds: 6, drawBase: 200,
			util: func(int64) float64 { return 0.25 },
			jobs: 4,
			modes: func(w *Workload, seed int64) []Config {
				var modes []Config
				for _, jitter := range []float64{0.1, 0.5, 1.0} {
					modes = append(modes, Config{Horizon: w.Horizon, ArrivalJitter: jitter, Seed: seed})
				}
				return modes
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			claims := map[core.Arbiter]int{}
			for seed := int64(0); seed < tc.seeds; seed++ {
				w := testWorkload(t, tc.drawBase+seed, tc.util(seed), 2, 3, tc.jobs)
				if w.Horizon > 5_000_000 {
					continue // keep the sweep fast
				}
				err := w.Sweep(analyses, tc.modes(w, seed), func(mode Config, ana core.Config, checked int, vs []Violation) {
					claims[ana.Arbiter] += checked
					for _, v := range vs {
						t.Errorf("seed %d %v (persistence=%v cpro=%v) jitter=%g offsets=%v task %s: observed %d > WCRT bound %d, %d deadline misses",
							seed, ana.Arbiter, ana.Persistence, ana.CPRO, mode.ArrivalJitter, mode.Offsets != nil,
							v.Task, v.Observed, v.Bound, v.DeadlineMisses)
					}
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			for _, arb := range core.Arbiters() {
				if arb != core.Perfect && claims[arb] == 0 {
					t.Errorf("%v: no bound claimed in any workload, so nothing was checked", arb)
				}
			}
		})
	}
}

// TestSimulatedMissesWithinAnalyticalDemand checks the memory-demand
// side against the analysis' own function: each small benchmark, run
// alone for five jobs, is served at most M̂D(n) =
// persistence.MDHat(task, n) bus accesses over its n released jobs
// (Eq. 10, Lemma 1).
func TestSimulatedMissesWithinAnalyticalDemand(t *testing.T) {
	for _, sets := range []int{64, 256} {
		plat := taskmodel.Platform{
			NumCores: 1,
			Cache:    taskmodel.CacheConfig{NumSets: sets, BlockSizeBytes: 32},
			DMem:     5,
			SlotSize: 2,
		}
		pool, err := Pool(SmallBenchmarks, plat.Cache)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pool {
			// Twice the isolated WCET keeps consecutive jobs apart.
			period := 2 * (p.PD + taskmodel.Time(p.MD)*plat.DMem)
			task := &taskmodel.Task{
				Name: p.Name, PD: p.PD, MD: p.MD, MDr: p.MDr,
				Period: period, Deadline: period,
				UCB: p.UCB, ECB: p.ECB, PCB: p.PCB,
			}
			w, err := NewWorkload(taskmodel.NewTaskSet(plat, []*taskmodel.Task{task}), 5)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(plat, w.Bindings, Config{Policy: core.FP, Horizon: w.Horizon})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Tasks[task.Priority]
			if st.Released != 5 || st.Completed != 5 {
				t.Fatalf("%s at %d sets: released/completed %d/%d, want 5/5", p.Name, sets, st.Released, st.Completed)
			}
			if bound := persistence.MDHat(task, st.Released); st.Misses > bound {
				t.Errorf("%s at %d sets: %d accesses served over %d jobs > M̂D = %d",
					p.Name, sets, st.Misses, st.Released, bound)
			}
		}
	}
}

// TestSporadicReducesLoad sanity-checks the sporadic mode itself:
// stretching arrivals can only reduce the number of released jobs.
func TestSporadicReducesLoad(t *testing.T) {
	w := testWorkload(t, 7, 0.2, 1, 2, 5)
	plat := w.TaskSet.Platform
	periodic, err := Run(plat, w.Bindings, Config{Policy: core.FP, Horizon: w.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	sporadic, err := Run(plat, w.Bindings, Config{Policy: core.FP, Horizon: w.Horizon, ArrivalJitter: 1.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for prio, p := range periodic.Tasks {
		if s := sporadic.Tasks[prio]; s.Released > p.Released {
			t.Errorf("task %s: sporadic released %d > periodic %d", p.Name, s.Released, p.Released)
		}
	}
}
