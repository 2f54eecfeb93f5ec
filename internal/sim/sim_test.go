package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cacheset"
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/staticwcet"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

func soloPlatform(cores int, dmem taskmodel.Time) taskmodel.Platform {
	return taskmodel.Platform{
		NumCores: cores,
		Cache:    taskmodel.CacheConfig{NumSets: 16, BlockSizeBytes: 32},
		DMem:     dmem,
		SlotSize: 2,
	}
}

// soloBinding builds a single straight-line task: PD=12 (4 blocks × 3
// cycles), MD=4, fully persistent.
func soloBinding(period taskmodel.Time) TaskBinding {
	p := &program.Program{Name: "solo", Root: program.Straight(0, 4, 3)}
	t := &taskmodel.Task{
		Name: "solo", Core: 0, Priority: 0,
		PD: 12, MD: 4, MDr: 0, Period: period, Deadline: period,
		ECB: cacheset.Of(16, 0, 1, 2, 3), UCB: cacheset.New(16), PCB: cacheset.Of(16, 0, 1, 2, 3),
	}
	return TaskBinding{Task: t, Prog: p}
}

func TestSoloTaskExactTiming(t *testing.T) {
	plat := soloPlatform(1, 5)
	bind := soloBinding(100)
	res, err := Run(plat, []TaskBinding{bind}, Config{Policy: core.FP, Horizon: 250})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := res.Tasks[0]
	if st.Released != 3 || st.Completed != 3 {
		t.Fatalf("released/completed = %d/%d, want 3/3", st.Released, st.Completed)
	}
	// First job: 4 misses × 5 cycles + 12 compute = 32. Later jobs hit
	// everywhere (persistent footprint, no other task): 12 cycles.
	if st.MaxResponse != 32 {
		t.Errorf("MaxResponse = %d, want 32", st.MaxResponse)
	}
	if st.MaxMissesPerJob != 4 {
		t.Errorf("MaxMissesPerJob = %d, want 4", st.MaxMissesPerJob)
	}
	if st.Misses != 4 {
		t.Errorf("total misses = %d, want 4 (persistence across jobs)", st.Misses)
	}
	if st.Hits != 8 {
		t.Errorf("hits = %d, want 8 (4 per warm job, first job all-miss)", st.Hits)
	}
	if st.DeadlineMisses != 0 {
		t.Errorf("deadline misses = %d, want 0", st.DeadlineMisses)
	}
	if res.BusServe != 4 {
		t.Errorf("bus served = %d, want 4", res.BusServe)
	}
	if res.BusBusy != 20 {
		t.Errorf("bus busy = %d, want 20", res.BusBusy)
	}
}

func TestSoloTaskTDMAWithinAnalyticBound(t *testing.T) {
	plat := soloPlatform(2, 5)
	bind := soloBinding(400)
	res, err := Run(plat, []TaskBinding{bind}, Config{Policy: core.TDMA, Horizon: 400})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := res.Tasks[0]
	// Eq. (9) bound: PD + MD×(1+(m−1)·s)×d_mem = 12 + 4×3×5 = 72.
	if st.MaxResponse > 72 {
		t.Errorf("TDMA MaxResponse = %d, exceeds Eq. (9) bound 72", st.MaxResponse)
	}
	if st.MaxResponse < 32 {
		t.Errorf("TDMA MaxResponse = %d, below contention-free 32 — impossible", st.MaxResponse)
	}
}

func TestRunErrors(t *testing.T) {
	plat := soloPlatform(1, 5)
	bind := soloBinding(100)
	if _, err := Run(plat, []TaskBinding{bind}, Config{Policy: core.FP, Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := Run(plat, []TaskBinding{{Task: bind.Task}}, Config{Policy: core.FP, Horizon: 10}); err == nil {
		t.Error("missing program accepted")
	}
	bad := soloBinding(100)
	bad.Task.Core = 5
	if _, err := Run(plat, []TaskBinding{bad}, Config{Policy: core.FP, Horizon: 10}); err == nil {
		t.Error("bad core accepted")
	}
	badPlat := plat
	badPlat.DMem = 0
	if _, err := Run(badPlat, []TaskBinding{bind}, Config{Policy: core.FP, Horizon: 10}); err == nil {
		t.Error("bad platform accepted")
	}
}

func TestOffsetsDelayFirstRelease(t *testing.T) {
	plat := soloPlatform(1, 5)
	bind := soloBinding(100)
	res, err := Run(plat, []TaskBinding{bind}, Config{
		Policy: core.FP, Horizon: 150, Offsets: map[int]taskmodel.Time{0: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tasks[0].Released; got != 1 {
		t.Errorf("released = %d, want 1 (offset 60, period 100, horizon 150)", got)
	}
}

func TestPreemptionCausesCacheReloads(t *testing.T) {
	// Two tasks on one core with fully overlapping footprints: the
	// high-priority task evicts the low-priority one's blocks on every
	// preemption, so the low task suffers extra misses (real CRPD).
	n := 4
	plat := taskmodel.Platform{
		NumCores: 1,
		Cache:    taskmodel.CacheConfig{NumSets: n, BlockSizeBytes: 32},
		DMem:     2,
		SlotSize: 1,
	}
	hiProg := &program.Program{Name: "hi", Root: program.Straight(0, 4, 2)}
	loProg := &program.Program{Name: "lo", Root: program.L(40, program.Straight(4, 4, 3))}
	hi := &taskmodel.Task{
		Name: "hi", Core: 0, Priority: 0,
		PD: 8, MD: 4, MDr: 0, Period: 100, Deadline: 100,
		ECB: cacheset.Of(n, 0, 1, 2, 3), UCB: cacheset.New(n), PCB: cacheset.Of(n, 0, 1, 2, 3),
	}
	lo := &taskmodel.Task{
		Name: "lo", Core: 0, Priority: 1,
		PD: 480, MD: 4, MDr: 0, Period: 2000, Deadline: 2000,
		ECB: cacheset.Of(n, 0, 1, 2, 3), UCB: cacheset.Of(n, 0, 1, 2, 3), PCB: cacheset.Of(n, 0, 1, 2, 3),
	}
	res, err := Run(plat, []TaskBinding{{hi, hiProg}, {lo, loProg}}, Config{Policy: core.FP, Horizon: 2000})
	if err != nil {
		t.Fatal(err)
	}
	loStats := res.Tasks[1]
	if loStats.Completed < 1 {
		t.Fatal("low task never completed")
	}
	// In isolation the loop body (4 persistent blocks) misses exactly 4
	// times. Preemptions by hi (identical cache sets) force reloads:
	// strictly more misses must be observed.
	if loStats.MaxMissesPerJob <= 4 {
		t.Errorf("MaxMissesPerJob = %d, want > 4 (CRPD must appear)", loStats.MaxMissesPerJob)
	}
}

func TestHorizonForJobs(t *testing.T) {
	b1 := soloBinding(100)
	b2 := soloBinding(300)
	if got := HorizonForJobs([]TaskBinding{b1, b2}, 3); got != 900 {
		t.Errorf("HorizonForJobs = %d, want 900", got)
	}
}

// TestHorizonForJobsSaturatesOnOverflow: a horizon beyond int64 clamps
// to math.MaxInt64 instead of wrapping negative (which Run would then
// treat as an instantly-finished simulation).
func TestHorizonForJobsSaturatesOnOverflow(t *testing.T) {
	huge := soloBinding(math.MaxInt64 / 2)
	if got := HorizonForJobs([]TaskBinding{huge}, 3); got != math.MaxInt64 {
		t.Errorf("HorizonForJobs = %d, want saturation at MaxInt64", got)
	}
	// The exact boundary still multiplies without saturating.
	exact := soloBinding(math.MaxInt64 / 3)
	if got, want := HorizonForJobs([]TaskBinding{exact}, 3), taskmodel.Time(math.MaxInt64/3*3); got != want {
		t.Errorf("HorizonForJobs = %d, want the exact product %d", got, want)
	}
}

// TestHorizonForJobsRejectsDegenerateSets: zero-period-only bindings,
// empty binding lists and non-positive job counts must fail loudly,
// not return horizon 0 and a simulation that observes nothing.
func TestHorizonForJobsRejectsDegenerateSets(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected a panic", name)
			}
		}()
		f()
	}
	zero := soloBinding(100)
	zero.Task = &taskmodel.Task{Name: "degenerate", Period: 0}
	mustPanic("all-zero periods", func() { HorizonForJobs([]TaskBinding{zero}, 3) })
	mustPanic("no bindings", func() { HorizonForJobs(nil, 3) })
	mustPanic("k = 0", func() { HorizonForJobs([]TaskBinding{soloBinding(100)}, 0) })
}

// TestRunRejectsUnsimulatableArbiter pins Run's up-front check: the
// contention-free Perfect bus and undeclared arbiter values have no bus
// model, so Run must fail before simulating instead of panicking at the
// first grant.
func TestRunRejectsUnsimulatableArbiter(t *testing.T) {
	plat := soloPlatform(1, 5)
	bind := soloBinding(100)
	for _, arb := range []core.Arbiter{core.Perfect, core.Arbiter(9), core.Arbiter(-1)} {
		res, err := Run(plat, []TaskBinding{bind}, Config{Policy: arb, Horizon: 150})
		if err == nil || res != nil {
			t.Errorf("Run(%v) = %v, %v; want an error", arb, res, err)
			continue
		}
		if !strings.Contains(err.Error(), arb.String()) {
			t.Errorf("Run(%v) error %q does not name the arbiter", arb, err)
		}
	}
}

// testWorkload generates and binds the workload of seed through the
// campaign driver, from the first five small benchmarks (in that order)
// on a platform with a regulated-bus budget, over about jobs jobs of
// the longest-period task. See soundness_test.go.
func testWorkload(t *testing.T, seed int64, util float64, cores, perCore, jobs int) *Workload {
	t.Helper()
	gen := taskgen.Config{
		Platform: taskmodel.Platform{
			NumCores:  cores,
			Cache:     taskmodel.CacheConfig{NumSets: 64, BlockSizeBytes: 32},
			DMem:      5,
			SlotSize:  2,
			RegBudget: 4,
			RegPeriod: 150,
		},
		TasksPerCore:    perCore,
		CoreUtilization: util,
	}
	pool, err := Pool(SmallBenchmarks[:5], gen.Platform.Cache)
	if err != nil {
		t.Fatal(err)
	}
	w, err := GenerateWorkload(gen, pool, seed, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGeneratedWorkloadRuns(t *testing.T) {
	w := testWorkload(t, 3, 0.3, 2, 3, 2)
	horizon := w.Horizon
	for _, pol := range []core.Arbiter{core.FP, core.RR, core.TDMA} {
		res, err := Run(w.TaskSet.Platform, w.Bindings, Config{Policy: pol, Horizon: horizon})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		completed := int64(0)
		for _, st := range res.Tasks {
			completed += st.Completed
		}
		if completed == 0 {
			t.Fatalf("%v: nothing completed in %d cycles", pol, horizon)
		}
		if res.BusBusy > int64(res.Cycles) {
			t.Fatalf("%v: bus busy %d exceeds horizon %d", pol, res.BusBusy, res.Cycles)
		}
	}
}

// --- two-level hierarchy ------------------------------------------------------

func TestTwoLevelSoloExactTiming(t *testing.T) {
	// L1 4 sets (blocks 0 and 4 thrash), L2 16 sets (both persist).
	// Reference pattern 0,4,0,4 with 1 compute cycle each:
	//   refs 1,2: L1+L2 miss -> bus (5 cycles) + 1 compute = 6 each
	//   refs 3,4: L1 miss, L2 hit -> DL2 (2 cycles) + 1 compute = 3 each
	plat := taskmodel.Platform{
		NumCores: 1,
		Cache:    taskmodel.CacheConfig{NumSets: 4, BlockSizeBytes: 32},
		L2:       taskmodel.CacheConfig{NumSets: 16, BlockSizeBytes: 32},
		DMem:     5,
		DL2:      2,
		SlotSize: 1,
	}
	prog := &program.Program{Name: "2lvl", Root: program.S(
		program.R(0, 1), program.R(4, 1), program.R(0, 1), program.R(4, 1),
	)}
	task := &taskmodel.Task{
		Name: "t", Core: 0, Priority: 0,
		PD: 4, MD: 2, MDr: 0, Period: 500, Deadline: 500,
		ECB: cacheset.Of(4, 0), UCB: cacheset.Of(4, 0), PCB: cacheset.New(4),
	}
	res, err := Run(plat, []TaskBinding{{Task: task, Prog: prog}}, Config{Policy: core.FP, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Tasks[0]
	if st.MaxResponse != 18 {
		t.Errorf("MaxResponse = %d, want 18 (2x6 + 2x3)", st.MaxResponse)
	}
	if st.L2Hits != 2 {
		t.Errorf("L2Hits = %d, want 2", st.L2Hits)
	}
	if res.BusServe != 2 {
		t.Errorf("bus served = %d, want 2 (only L2 misses)", res.BusServe)
	}
}

func TestTwoLevelWithinHierarchyAnalysisBound(t *testing.T) {
	// Random program, solo task: observed response within the bound
	// PD + MD*d_mem + L1Misses*DL2 derived from AnalyzeHierarchy.
	plat := taskmodel.Platform{
		NumCores: 2,
		Cache:    taskmodel.CacheConfig{NumSets: 8, BlockSizeBytes: 32},
		L2:       taskmodel.CacheConfig{NumSets: 32, BlockSizeBytes: 32},
		DMem:     5,
		DL2:      2,
		SlotSize: 2,
	}
	for seed := int64(0); seed < 15; seed++ {
		prog := program.Generate("h", program.DefaultGenConfig(), rand.New(rand.NewSource(seed)))
		if prog.DynamicRefs() > 50000 {
			continue
		}
		h, err := staticwcet.AnalyzeHierarchy(prog, plat.Cache, plat.L2)
		if err != nil {
			t.Fatal(err)
		}
		period := taskmodel.Time(4 * (int64(h.PD) + h.MD*5 + h.L1Misses*2))
		if period < 100 {
			period = 100
		}
		task := &taskmodel.Task{
			Name: "h", Core: 0, Priority: 0,
			PD: h.PD, MD: h.MD, MDr: h.MDr, Period: period, Deadline: period,
			ECB: cacheset.New(8), UCB: cacheset.New(8), PCB: cacheset.New(8),
		}
		res, err := Run(plat, []TaskBinding{{Task: task, Prog: prog}},
			Config{Policy: core.RR, Horizon: period * 3})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Tasks[0]
		if st.Completed == 0 {
			continue
		}
		bound := h.PD + taskmodel.Time(h.MD)*plat.DMem + taskmodel.Time(h.L1Misses)*plat.DL2
		if st.MaxResponse > bound {
			t.Fatalf("seed %d: observed %d > hierarchy bound %d (PD=%d MD=%d L1m=%d)",
				seed, st.MaxResponse, bound, h.PD, h.MD, h.L1Misses)
		}
	}
}
