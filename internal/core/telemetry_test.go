package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// TestTelemetryCounterReconciliation checks the accounting invariants
// the trace exporter relies on: every run is counted, completed runs
// plus aborted runs partition nothing (the bus-overload gate completes
// with a verdict), and the abort reasons sum exactly to the number of
// unschedulable verdicts.
func TestTelemetryCounterReconciliation(t *testing.T) {
	obs := telemetry.New()
	var runs, unsched, complete int64
	for _, util := range []float64{0.3, 0.6, 0.9} {
		for _, ts := range randomTaskSets(t, 4, util) {
			for _, arb := range []Arbiter{FP, RR, TDMA, Perfect} {
				for _, persist := range []bool{false, true} {
					res, err := Analyze(ts, Config{Arbiter: arb, Persistence: persist}, Options{Observer: obs})
					if err != nil {
						t.Fatal(err)
					}
					runs++
					if !res.Schedulable {
						unsched++
					}
					if res.Complete {
						complete++
					}
				}
			}
		}
	}
	if unsched == 0 {
		t.Fatal("test needs at least one unschedulable set to exercise the abort counters")
	}
	m := obs.Metrics
	if got := m.Get(telemetry.CtrRuns); got != runs {
		t.Errorf("analyzer.runs = %d, want %d", got, runs)
	}
	if got := m.Get(telemetry.CtrRunsCompleted); got != complete {
		t.Errorf("analyzer.runs_completed = %d, want %d", got, complete)
	}
	aborts := m.Get(telemetry.CtrAbortDeadlineMiss) +
		m.Get(telemetry.CtrAbortNonConvergence) +
		m.Get(telemetry.CtrAbortBusOverload)
	if aborts != unsched {
		t.Errorf("abort counters sum to %d, want %d unschedulable runs (miss=%d nonconv=%d overload=%d)",
			aborts, unsched,
			m.Get(telemetry.CtrAbortDeadlineMiss),
			m.Get(telemetry.CtrAbortNonConvergence),
			m.Get(telemetry.CtrAbortBusOverload))
	}
	if m.Get(telemetry.CtrTaskAnalyses) == 0 || m.Get(telemetry.CtrInnerIterations) == 0 {
		t.Error("hot-path counters never incremented")
	}
	if got := m.Hist(telemetry.HistOuterRounds).Snapshot().Count; got != runs {
		t.Errorf("outer-rounds histogram count = %d, want %d", got, runs)
	}
}

// TestCursorReseedOnlyOnRemoteChange is the regression test for the
// fixed-point resume path: across outer rounds, a re-analysis must
// reuse the level's cursors (a resume, not a rebuild), and must
// re-evaluate exactly the remote cursors whose carry-in offset — a
// function of the remote estimate R_l — actually changed.
func TestCursorReseedOnlyOnRemoteChange(t *testing.T) {
	obs := telemetry.New()
	ts := fixtures.Fig1TaskSet() // tau1, tau2 on core 0; tau3 on core 1
	a, err := NewAnalyzer(ts, Config{Arbiter: FP, Persistence: true})
	if err != nil {
		t.Fatal(err)
	}
	a.obs = obs
	if res := a.Run(); !res.Schedulable {
		t.Fatal("paper example should be schedulable")
	}
	m := obs.Metrics
	snap := func() (rebuilds, resumes, refreshes int64) {
		return m.Get(telemetry.CtrCursorRebuilds),
			m.Get(telemetry.CtrCursorResumes),
			m.Get(telemetry.CtrCursorRemoteRefreshes)
	}

	// Steady state: nothing changed, so re-analyzing tau1 must resume
	// its cursors and refresh no remote term.
	rb0, rs0, rf0 := snap()
	r1, ok := a.ResponseTime(0)
	if !ok {
		t.Fatal("tau1 did not converge")
	}
	rb1, rs1, rf1 := snap()
	if rb1 != rb0 {
		t.Errorf("steady-state re-analysis rebuilt cursors (%d -> %d)", rb0, rb1)
	}
	if rs1 != rs0+1 {
		t.Errorf("steady-state re-analysis did not resume (resumes %d -> %d)", rs0, rs1)
	}
	if rf1 != rf0 {
		t.Errorf("steady-state re-analysis refreshed %d remote cursors, want 0", rf1-rf0)
	}

	// A same-core estimate change is invisible to tau1's recurrence:
	// still zero refreshes.
	a.R[1] += 7
	if _, ok := a.ResponseTime(0); !ok {
		t.Fatal("tau1 did not converge")
	}
	_, _, rf2 := snap()
	if rf2 != rf1 {
		t.Errorf("same-core change refreshed %d remote cursors, want 0", rf2-rf1)
	}

	// A remote estimate change must refresh exactly the one cursor that
	// reads it: tau3 is tau1's only remote task (in lp(0) on core 1).
	a.R[2] += 5
	r1b, ok := a.ResponseTime(0)
	if !ok {
		t.Fatal("tau1 did not converge")
	}
	rb3, _, rf3 := snap()
	if rf3 != rf2+1 {
		t.Errorf("remote change refreshed %d cursors, want exactly 1", rf3-rf2)
	}
	if rb3 != rb1 {
		t.Errorf("remote change triggered a rebuild (%d -> %d)", rb1, rb3)
	}
	if r1b < r1 {
		t.Errorf("grown remote estimate shrank the bound: %d -> %d", r1, r1b)
	}
}

func TestAnalyzeBatchOptsLabelsAndObserver(t *testing.T) {
	obs := telemetry.New()
	obs.Trace = telemetry.NewTraceRecorder()
	ts := fixtures.Fig1TaskSet()
	cfgs := []Config{{Arbiter: FP}, {Arbiter: TDMA, Persistence: true}}
	reqs := []BatchRequest{
		{TS: ts, Cfgs: cfgs, Label: "point-a"},
		{TS: ts, Cfgs: cfgs}, // unlabeled: falls back to index
	}
	var mu sync.Mutex
	got := map[string]int{}
	out, err := AnalyzeBatchOpts(reqs, BatchOptions{
		Workers:  2,
		Observer: obs,
		OnResult: func(i int, res []*Result, label string) {
			mu.Lock()
			got[label] = len(res)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out[0]) != 2 || len(out[1]) != 2 {
		t.Fatalf("results shape wrong: %v", out)
	}
	if got["point-a"] != 2 || got["request 1"] != 2 {
		t.Errorf("OnResult labels = %v", got)
	}
	if runs := obs.Metrics.Get(telemetry.CtrRuns); runs != 4 {
		t.Errorf("analyzer.runs = %d, want 4 (2 requests x 2 configs)", runs)
	}
}

func TestAnalyzeBatchOptsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ts := fixtures.Fig1TaskSet()
	reqs := make([]BatchRequest, 8)
	for i := range reqs {
		reqs[i] = BatchRequest{TS: ts, Cfgs: []Config{{Arbiter: FP}}}
	}
	out, err := AnalyzeBatchOpts(reqs, BatchOptions{Workers: 2, Context: ctx})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 8 {
		t.Fatalf("partial results slice has len %d, want 8", len(out))
	}
	// Pre-canceled: workers drain without doing work.
	for i, res := range out {
		if res != nil {
			t.Errorf("request %d analyzed despite pre-canceled context", i)
		}
	}
}

func TestSensitivityOptsReportRuns(t *testing.T) {
	obs := telemetry.New()
	ts := fixtures.Fig1TaskSet()
	cfg := Config{Arbiter: FP, Persistence: true}
	d, err := MaxDMem(ts, cfg, 64, Options{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	dPlain, err := MaxDMem(ts, cfg, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d != dPlain {
		t.Errorf("MaxDMem with an observer = %d, without = %d", d, dPlain)
	}
	if obs.Metrics.Get(telemetry.CtrRuns) == 0 {
		t.Error("sensitivity probes invisible to the observer")
	}
}

// TestEntryPointsHonourOptions checks that Analyze and MaxDMem use both
// Options fields: two calls sharing one memo store hit it, and every
// result equals the uninstrumented, unshared run's.
func TestEntryPointsHonourOptions(t *testing.T) {
	cfg := Config{Arbiter: RR, Persistence: true}
	for si, ts := range append([]*taskmodel.TaskSet{fixtures.Fig1TaskSet()}, randomTaskSets(t, 1, 0.3)...) {
		calls := map[string]func(Options) (any, error){
			"Analyze": func(o Options) (any, error) { return Analyze(ts, cfg, o) },
			"MaxDMem": func(o Options) (any, error) { return MaxDMem(ts, cfg, 64, o) },
		}
		for name, call := range calls {
			want, err := call(Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Observer: telemetry.New(), Memo: NewMemoStore(0)}
			for i := 0; i < 2; i++ {
				got, err := call(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("set %d %s call %d: %+v with options, %+v without", si, name, i, got, want)
				}
			}
			if hits := opts.Observer.Metrics.Get(telemetry.CtrMemoHits); hits == 0 {
				t.Errorf("set %d %s: two calls sharing a memo store recorded no memo hits", si, name)
			}
		}
	}
}
