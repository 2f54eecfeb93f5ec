package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
)

// TestAnalysisDominatesSimulation is the repository's end-to-end
// soundness check: for randomly generated workloads whose tasks run
// the very programs their parameters were extracted from, the
// analytical WCRT bound of every analysis variant must dominate the
// largest response time observed in simulation — including the
// persistence-aware variants, whose bounds are tighter.
func TestAnalysisDominatesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation soundness sweep skipped in -short mode")
	}
	for seed := int64(0); seed < 12; seed++ {
		util := 0.15 + 0.05*float64(seed%5)
		plat, bindings := generateBindings(t, seed, util, 2, 3)
		tasks := make([]*taskmodel.Task, len(bindings))
		for i := range bindings {
			tasks[i] = bindings[i].Task
		}
		ts := taskmodel.NewTaskSet(plat, tasks)
		horizon := HorizonForJobs(bindings, 3)
		if horizon > 5_000_000 {
			continue // keep the sweep fast
		}
		for _, arb := range []core.Arbiter{core.FP, core.RR, core.TDMA} {
			simRes, err := Run(plat, bindings, Config{Policy: arb, Horizon: horizon})
			if err != nil {
				t.Fatalf("seed %d %v: sim: %v", seed, arb, err)
			}
			for _, anaCfg := range []core.Config{
				{Arbiter: arb},
				{Arbiter: arb, Persistence: true},
				{Arbiter: arb, Persistence: true, CPRO: persistence.MultisetUnion},
			} {
				persistenceOn := anaCfg.Persistence
				anaRes, err := core.Analyze(ts, anaCfg, core.Options{})
				if err != nil {
					t.Fatalf("seed %d %v: analysis: %v", seed, arb, err)
				}
				if !anaRes.Schedulable {
					continue // no bound claimed
				}
				bound := map[int]taskmodel.Time{}
				for _, tr := range anaRes.Tasks {
					bound[tr.Priority] = tr.WCRT
				}
				for prio, st := range simRes.Tasks {
					if st.Completed == 0 {
						continue
					}
					if st.MaxResponse > bound[prio] {
						t.Errorf("seed %d u=%.2f %v (persistence=%v) task %s: observed %d > WCRT bound %d",
							seed, util, arb, persistenceOn, st.Name, st.MaxResponse, bound[prio])
					}
					if st.DeadlineMisses > 0 {
						t.Errorf("seed %d u=%.2f %v (persistence=%v) task %s: %d deadline misses despite schedulable verdict",
							seed, util, arb, persistenceOn, st.Name, st.DeadlineMisses)
					}
				}
			}
		}
	}
}

// TestAnalysisDominatesSimulationWithOffsets repeats the soundness
// check with skewed first releases: the analysis makes no assumption
// about task phasing, so the bound must hold for arbitrary offsets too.
func TestAnalysisDominatesSimulationWithOffsets(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation soundness sweep skipped in -short mode")
	}
	for seed := int64(0); seed < 6; seed++ {
		plat, bindings := generateBindings(t, seed+100, 0.25, 2, 3)
		tasks := make([]*taskmodel.Task, len(bindings))
		offsets := map[int]taskmodel.Time{}
		for i := range bindings {
			tasks[i] = bindings[i].Task
			offsets[tasks[i].Priority] = taskmodel.Time((seed*37 + int64(i)*113) % 500)
		}
		ts := taskmodel.NewTaskSet(plat, tasks)
		horizon := HorizonForJobs(bindings, 3)
		if horizon > 5_000_000 {
			continue
		}
		simRes, err := Run(plat, bindings, Config{Policy: core.RR, Horizon: horizon, Offsets: offsets})
		if err != nil {
			t.Fatalf("seed %d: sim: %v", seed, err)
		}
		anaRes, err := core.Analyze(ts, core.Config{Arbiter: core.RR, Persistence: true}, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: analysis: %v", seed, err)
		}
		if !anaRes.Schedulable {
			continue
		}
		bound := map[int]taskmodel.Time{}
		for _, tr := range anaRes.Tasks {
			bound[tr.Priority] = tr.WCRT
		}
		for prio, st := range simRes.Tasks {
			if st.Completed > 0 && st.MaxResponse > bound[prio] {
				t.Errorf("seed %d task %s: observed %d > WCRT bound %d (offset run)",
					seed, st.Name, st.MaxResponse, bound[prio])
			}
		}
	}
}

// TestSimulatedMissesWithinAnalyticalDemand checks the memory-demand
// side: over a window with no preemption (solo task), per-job misses
// never exceed MD, and warm jobs never exceed MD^r.
func TestSimulatedMissesWithinAnalyticalDemand(t *testing.T) {
	plat, bindings := generateBindings(t, 42, 0.2, 1, 1)
	b := bindings[0]
	horizon := b.Task.Period * 4
	res, err := Run(plat, bindings, Config{Policy: core.FP, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Tasks[b.Task.Priority]
	if st.Completed < 2 {
		t.Fatalf("completed = %d, want >= 2", st.Completed)
	}
	if st.MaxMissesPerJob > b.Task.MD {
		t.Errorf("max misses per job %d > MD %d", st.MaxMissesPerJob, b.Task.MD)
	}
	// Total misses over k jobs bounded by Eq. (10): MD for the first
	// plus MD^r for each later job, plus nothing else (solo task).
	maxTotal := b.Task.MD + (st.Completed-1)*b.Task.MDr
	if st.Misses > maxTotal {
		t.Errorf("total misses %d > M̂D bound %d", st.Misses, maxTotal)
	}
}

// TestAnalysisDominatesSimulationSporadic fuzzes arrivals: sporadic
// releases with random inter-arrival stretching must stay within the
// analytical bounds, which assume only the minimum separation T.
func TestAnalysisDominatesSimulationSporadic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation soundness sweep skipped in -short mode")
	}
	for seed := int64(0); seed < 6; seed++ {
		plat, bindings := generateBindings(t, seed+200, 0.25, 2, 3)
		tasks := make([]*taskmodel.Task, len(bindings))
		for i := range bindings {
			tasks[i] = bindings[i].Task
		}
		ts := taskmodel.NewTaskSet(plat, tasks)
		horizon := HorizonForJobs(bindings, 4)
		if horizon > 5_000_000 {
			continue
		}
		for _, jitter := range []float64{0.1, 0.5, 1.0} {
			simRes, err := Run(plat, bindings, Config{
				Policy: core.RR, Horizon: horizon,
				ArrivalJitter: jitter, Seed: seed,
			})
			if err != nil {
				t.Fatalf("seed %d jitter %g: %v", seed, jitter, err)
			}
			anaRes, err := core.Analyze(ts, core.Config{Arbiter: core.RR, Persistence: true}, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !anaRes.Schedulable {
				continue
			}
			bound := map[int]taskmodel.Time{}
			for _, tr := range anaRes.Tasks {
				bound[tr.Priority] = tr.WCRT
			}
			for prio, st := range simRes.Tasks {
				if st.Completed > 0 && st.MaxResponse > bound[prio] {
					t.Errorf("seed %d jitter %g task %s: observed %d > bound %d",
						seed, jitter, st.Name, st.MaxResponse, bound[prio])
				}
			}
		}
	}
}

// TestSporadicReducesLoad sanity-checks the sporadic mode itself:
// stretching arrivals can only reduce the number of released jobs.
func TestSporadicReducesLoad(t *testing.T) {
	plat, bindings := generateBindings(t, 7, 0.2, 1, 2)
	horizon := HorizonForJobs(bindings, 5)
	periodic, err := Run(plat, bindings, Config{Policy: core.FP, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	sporadic, err := Run(plat, bindings, Config{Policy: core.FP, Horizon: horizon, ArrivalJitter: 1.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for prio, p := range periodic.Tasks {
		if s := sporadic.Tasks[prio]; s.Released > p.Released {
			t.Errorf("task %s: sporadic released %d > periodic %d", p.Name, s.Released, p.Released)
		}
	}
}
