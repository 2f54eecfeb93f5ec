package core

import (
	"testing"

	"repro/internal/cacheset"
	"repro/internal/fixtures"
	"repro/internal/taskmodel"
)

// fpBlockingSet builds a two-core system where the FP bus blocking
// terms of Eq. (7) are all exercised: a middle-priority task under
// analysis, a remote higher-priority task (BAO), a remote
// lower-priority task (BAO_low / min term) and a local lower-priority
// task (+1).
func fpBlockingSet() *taskmodel.TaskSet {
	n := 8
	plat := taskmodel.Platform{
		NumCores: 2,
		Cache:    taskmodel.CacheConfig{NumSets: n, BlockSizeBytes: 32},
		DMem:     2,
		SlotSize: 1,
	}
	empty := cacheset.New(n)
	mk := func(name string, core, prio int, pd taskmodel.Time, md int64, period taskmodel.Time) *taskmodel.Task {
		return &taskmodel.Task{
			Name: name, Core: core, Priority: prio,
			PD: pd, MD: md, MDr: md, Period: period, Deadline: period,
			ECB: empty, UCB: empty, PCB: empty,
		}
	}
	return taskmodel.NewTaskSet(plat, []*taskmodel.Task{
		mk("remoteHi", 1, 0, 5, 3, 50),
		mk("under", 0, 1, 10, 4, 200),
		mk("localLo", 0, 2, 8, 2, 300),
		mk("remoteLo", 1, 3, 6, 2, 400),
	})
}

func TestFPBlockingTermsHandChecked(t *testing.T) {
	ts := fpBlockingSet()
	a, err := NewReference(ts, Config{Arbiter: FP})
	if err != nil {
		t.Fatal(err)
	}
	// Fix remote response estimates for determinism of njobs.
	a.R[0] = 11 // PD+MD*d = 5+6
	a.R[3] = 10

	const w = taskmodel.Time(40)
	// BAS for "under" (prio 1, core 0): MD=4, no local hp → 4.
	if got := a.BAS(1, 0, w); got != 4 {
		t.Fatalf("BAS = %d, want 4", got)
	}
	// BAO(level 1, core 1): only remoteHi (prio 0).
	// njobs = floor((40+11-3*2)/50) = 0; wcout = min(ceil(45/2), 3) = 3.
	if got := a.BAO(1, 1, w); got != 3 {
		t.Fatalf("BAO = %d, want 3 (pure carry-out)", got)
	}
	// BAO_low(level 1, core 1): remoteLo: njobs = floor((40+10-4)/400)=0;
	// wcout = min(ceil(46/2), 2) = 2.
	if got := a.baoLow(1, 1, w); got != 2 {
		t.Fatalf("BAO_low = %d, want 2", got)
	}
	// plus1: localLo exists.
	if got := a.plus1(1, 0); got != 1 {
		t.Fatalf("plus1 = %d, want 1", got)
	}
	// Eq. (7): BAS + BAO + 1 + min(BAS, BAO_low) = 4 + 3 + 1 + 2 = 10.
	if got := a.BAT(1, w); got != 10 {
		t.Fatalf("BAT = %d, want 10", got)
	}
}

func TestNjobsClampsNegative(t *testing.T) {
	ts := fpBlockingSet()
	a, err := NewReference(ts, Config{Arbiter: FP})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny window, R estimate small: numerator negative.
	a.R[0] = 1
	if got := a.njobs(1, ts.ByPriority(0), 1); got != 0 {
		t.Fatalf("njobs = %d, want 0 (clamped)", got)
	}
}

func TestWcoutClampedByDemand(t *testing.T) {
	ts := fpBlockingSet()
	a, err := NewReference(ts, Config{Arbiter: FP})
	if err != nil {
		t.Fatal(err)
	}
	tl := ts.ByPriority(0)
	a.R[0] = 1000 // huge estimate: carry-out capped at MD+γ
	if got := a.wcout(1, tl, 10, 0); got != tl.MD {
		t.Fatalf("wcout = %d, want MD = %d", got, tl.MD)
	}
	// Negative numerator clamps at zero.
	a.R[0] = 0
	if got := a.wcout(1, tl, 0, 5); got != 0 {
		t.Fatalf("wcout = %d, want 0", got)
	}
}

func TestMaxOuterIterationsCapIsConservative(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	res, err := Analyze(ts, Config{Arbiter: RR, Persistence: true, MaxOuterIterations: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Analyze(ts, Config{Arbiter: RR, Persistence: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With a one-iteration budget the outer loop cannot certify
	// convergence unless it happens immediately; if it reports
	// schedulable, the unconstrained run must agree.
	if res.Schedulable && !full.Schedulable {
		t.Fatal("capped run certified a set the full run rejects")
	}
	if res.Schedulable && !res.Complete {
		t.Fatal("schedulable result must be complete")
	}
}

func TestCeilFloorDiv(t *testing.T) {
	cases := []struct{ a, b, ceil, floor int64 }{
		{7, 2, 4, 3},
		{8, 2, 4, 4},
		{-7, 2, -3, -4},
		{0, 5, 0, 0},
		{-1, 3, 0, -1},
		{1, 3, 1, 0},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.ceil {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
		if got := floorDiv(c.a, c.b); got != c.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(TDMA, true)
	if cfg.Arbiter != TDMA || !cfg.Persistence {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
}

func TestResultCompleteFlag(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	res, err := Analyze(ts, Config{Arbiter: RR}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable || !res.Complete {
		t.Fatalf("Fig1 under RR should be schedulable and complete: %+v", res)
	}
	// Force a miss: shrink τ2's deadline below its isolated demand.
	ts.Tasks[1].Deadline = 10
	ts.Tasks[1].Period = 120
	res, err = Analyze(ts, Config{Arbiter: RR}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable || res.Complete {
		t.Fatalf("expected incomplete unschedulable result: %+v", res)
	}
}
