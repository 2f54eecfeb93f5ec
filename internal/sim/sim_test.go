package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/benchsuite"
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

// TestPercentileNearestRankBoundaries pins the exact nearest-rank
// contract on the boundary grid of the former float-fudge bug:
// p ∈ {0, 1/n, 0.5, (n-1)/n, 1} for n ∈ {1, 2, 3, 100}. The samples
// are 10·rank, so the expected quantile directly names the expected
// rank.
func TestPercentileNearestRankBoundaries(t *testing.T) {
	stats := func(n int) *TaskStats {
		s := &TaskStats{}
		// Insert out of order; Percentile sorts a copy.
		for i := n - 1; i >= 0; i-- {
			s.Responses = append(s.Responses, taskmodel.Time(10*(i+1)))
		}
		return s
	}
	rank := func(n int, r int) taskmodel.Time { return taskmodel.Time(10 * r) }
	for _, tc := range []struct {
		n    int
		p    float64
		want int // expected rank in [1, n]
	}{
		{1, 0, 1}, {1, 1.0 / 1, 1}, {1, 0.5, 1}, {1, 0.0 / 1, 1}, {1, 1, 1},
		{2, 0, 1}, {2, 1.0 / 2, 1}, {2, 0.5, 1}, {2, 1.0 / 2, 1}, {2, 1, 2},
		{3, 0, 1}, {3, 1.0 / 3, 1}, {3, 0.5, 2}, {3, 2.0 / 3, 2}, {3, 1, 3},
		{100, 0, 1}, {100, 1.0 / 100, 1}, {100, 0.5, 50}, {100, 99.0 / 100, 99}, {100, 1, 100},
	} {
		got := stats(tc.n).Percentile(tc.p)
		if want := rank(tc.n, tc.want); got != want {
			t.Errorf("n=%d p=%v: got %d, want rank %d (%d)", tc.n, tc.p, got, tc.want, want)
		}
	}
	// Out-of-range p clamps to the extremes.
	s := stats(3)
	if got := s.Percentile(-0.5); got != 10 {
		t.Errorf("p=-0.5: got %d, want the minimum", got)
	}
	if got := s.Percentile(1.5); got != 30 {
		t.Errorf("p=1.5: got %d, want the maximum", got)
	}
	// Just above a rank boundary the next rank must be charged: the
	// old +0.999999 fudge returned rank 1 here, under-reporting the
	// quantile.
	if got := stats(100).Percentile(0.0100001); got != 20 {
		t.Errorf("p just above 1/100: got %d, want rank 2", got)
	}
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

// The simulator tests reuse the generator pipeline below; these tests
// bind generated tasks to the very programs their parameters were
// extracted from, then check the analytical WCRTs dominate every
// observed response time. See soundness_test.go.

func poolAndPrograms(t *testing.T, cache taskmodel.CacheConfig, names []string) ([]taskgen.TaskParams, map[string]*program.Program) {
	t.Helper()
	progs := map[string]*program.Program{}
	var pool []taskgen.TaskParams
	for _, name := range names {
		b, err := benchsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := benchsuite.Extract(b, cache)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = b.Prog
		r := p.Result
		pool = append(pool, taskgen.TaskParams{
			Name: name, PD: r.PD, MD: r.MD, MDr: r.MDr,
			UCB: r.UCB, ECB: r.ECB, PCB: r.PCB,
		})
	}
	return pool, progs
}

func generateBindings(t *testing.T, seed int64, util float64, cores, perCore int) (taskmodel.Platform, []TaskBinding) {
	t.Helper()
	cfg := taskgen.Config{
		Platform: taskmodel.Platform{
			NumCores: cores,
			Cache:    taskmodel.CacheConfig{NumSets: 64, BlockSizeBytes: 32},
			DMem:     5,
			SlotSize: 2,
		},
		TasksPerCore:    perCore,
		CoreUtilization: util,
	}
	pool, progs := poolAndPrograms(t, cfg.Platform.Cache,
		[]string{"lcdnum", "cnt", "qurt", "crc", "jfdctint"})
	ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	var bindings []TaskBinding
	for _, task := range ts.Tasks {
		bindings = append(bindings, TaskBinding{Task: task, Prog: progs[task.Name]})
	}
	return cfg.Platform, bindings
}

func TestGeneratedWorkloadRuns(t *testing.T) {
	plat, bindings := generateBindings(t, 3, 0.3, 2, 3)
	horizon := HorizonForJobs(bindings, 2)
	for _, pol := range []core.Arbiter{core.FP, core.RR, core.TDMA} {
		res, err := Run(plat, bindings, Config{Policy: pol, Horizon: horizon})
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

func TestNonPreemptiveBlocksHighPriority(t *testing.T) {
	n := 4
	plat := taskmodel.Platform{
		NumCores: 1,
		Cache:    taskmodel.CacheConfig{NumSets: n, BlockSizeBytes: 32},
		DMem:     2,
		SlotSize: 1,
	}
	hi := &taskmodel.Task{
		Name: "hi", Core: 0, Priority: 0,
		PD: 4, MD: 2, MDr: 0, Period: 100, Deadline: 100,
		ECB: cacheset.Of(n, 0, 1), UCB: cacheset.New(n), PCB: cacheset.Of(n, 0, 1),
	}
	lo := &taskmodel.Task{
		Name: "lo", Core: 0, Priority: 1,
		PD: 200, MD: 2, MDr: 0, Period: 1000, Deadline: 1000,
		ECB: cacheset.Of(n, 2, 3), UCB: cacheset.New(n), PCB: cacheset.Of(n, 2, 3),
	}
	bindings := []TaskBinding{
		{hi, &program.Program{Name: "hi", Root: program.Straight(0, 2, 2)}},
		{lo, &program.Program{Name: "lo", Root: program.L(50, program.Straight(2, 2, 2))}},
	}
	// Offset the low task so it starts first and then blocks hi's next
	// releases under non-preemptive dispatch.
	col := &CollectTracer{}
	np, err := Run(plat, bindings, Config{
		Policy: core.FP, Horizon: 1000, NonPreemptive: true, Trace: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range col.Events {
		if e.Kind == EvPreempt {
			t.Fatalf("preemption event under non-preemptive scheduling: %+v", e)
		}
	}
	p, err := Run(plat, bindings, Config{Policy: core.FP, Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// The long low-priority job blocks hi far beyond its preemptive
	// response time.
	if np.Tasks[0].MaxResponse <= p.Tasks[0].MaxResponse {
		t.Errorf("NP hi response %d not above preemptive %d",
			np.Tasks[0].MaxResponse, p.Tasks[0].MaxResponse)
	}
	// The low task, conversely, never suffers preemption reloads.
	if np.Tasks[1].MaxMissesPerJob > p.Tasks[1].MaxMissesPerJob {
		t.Errorf("NP lo misses/job %d above preemptive %d",
			np.Tasks[1].MaxMissesPerJob, p.Tasks[1].MaxMissesPerJob)
	}
}

func TestResponseDistribution(t *testing.T) {
	plat := soloPlatform(1, 5)
	bind := soloBinding(100)
	res, err := Run(plat, []TaskBinding{bind}, Config{Policy: core.FP, Horizon: 450})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Tasks[0]
	// Jobs: cold 32, then warm 12s.
	if len(st.Responses) != int(st.Completed) {
		t.Fatalf("recorded %d responses for %d completions", len(st.Responses), st.Completed)
	}
	if st.Responses[0] != 32 {
		t.Errorf("first response = %d, want 32", st.Responses[0])
	}
	if got := st.Percentile(0); got != 12 {
		t.Errorf("P0 = %d, want 12", got)
	}
	if got := st.Percentile(1); got != 32 {
		t.Errorf("P100 = %d, want 32", got)
	}
	if got := st.Percentile(0.5); got != 12 {
		t.Errorf("median = %d, want 12 (four of five jobs are warm)", got)
	}
	mean := st.MeanResponse()
	if mean <= 12 || mean >= 32 {
		t.Errorf("mean = %g, want strictly between 12 and 32", mean)
	}
	var empty TaskStats
	if empty.Percentile(0.5) != 0 || empty.MeanResponse() != 0 {
		t.Error("empty stats must report zeros")
	}
}
