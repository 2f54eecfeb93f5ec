package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

// TestExtensionWorkersDeterministic: the extension studies run on the
// parallel sweep runtime, so the worker count must not change a single
// value of the returned study.
func TestExtensionWorkersDeterministic(t *testing.T) {
	for _, s := range extensionStudies {
		var studies [2]*Study
		for i, workers := range []int{1, 4} {
			opts := smallOpts()
			opts.Workers = workers
			st, err := s.run(opts)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", s.name, workers, err)
			}
			studies[i] = st
		}
		if !reflect.DeepEqual(studies[0], studies[1]) {
			t.Errorf("%s: 1 worker gives %+v, 4 workers give %+v", s.name, studies[0], studies[1])
		}
	}
}

// fixedConfig returns a sweep configAt that generates every point
// from the small test settings.
func fixedConfig(t *testing.T) func(int) (taskgen.Config, []taskgen.TaskParams, error) {
	t.Helper()
	base := smallOpts().Base
	pool, err := taskgen.PoolFromSuite(base.Platform.Cache)
	if err != nil {
		t.Fatal(err)
	}
	return func(int) (taskgen.Config, []taskgen.TaskParams, error) { return base, pool, nil }
}

// countingPrepare returns a per-point hook that passes every set
// through and counts its calls.
func countingPrepare(calls *atomic.Int64) func(int, *taskmodel.TaskSet) (*taskmodel.TaskSet, error) {
	return func(_ int, ts *taskmodel.TaskSet) (*taskmodel.TaskSet, error) {
		calls.Add(1)
		return ts, nil
	}
}

// TestSweepPrecancelledSkipsGeneration: a sweep whose context is
// already canceled hands out no generation work beyond what the
// workers hold, instead of generating every set and then skipping its
// analysis.
func TestSweepPrecancelledSkipsGeneration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := smallOpts()
	opts.Workers = 2
	opts.Context = ctx
	var calls atomic.Int64
	_, err := sweep(opts, 4, fixedConfig(t),
		func(int) []float64 { return opts.Utilizations },
		rrCP, countingPrepare(&calls))
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if n := calls.Load(); n > int64(opts.Workers) {
		t.Errorf("%d per-point hook calls after the cancel, want at most %d", n, opts.Workers)
	}
}

// TestSweepInfeasibleSets: a set the per-point hook rejects counts as
// unschedulable under every variant without being analyzed, and is
// checkpointed so a resumed sweep does not ask the hook again.
func TestSweepInfeasibleSets(t *testing.T) {
	opts := smallOpts()
	log, err := checkpoint.Create(filepath.Join(t.TempDir(), "infeasible.json"),
		checkpoint.Header{Study: "infeasible", Seed: opts.Seed, TaskSets: opts.TaskSetsPerPoint})
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = log
	reject := func(*taskmodel.TaskSet) (*taskmodel.TaskSet, error) { return nil, nil }
	st, err := ratioStudy(opts.withDefaults(), "Infeasible", "all rejected",
		[]group{{label: "kept", cfg: smallOpts().Base}, {label: "rejected", cfg: smallOpts().Base, prepare: reject}},
		PaperVariants()[:2], false)
	if err != nil {
		t.Fatal(err)
	}
	by := seriesByName(st)
	for i, x := range st.Xs {
		if v := by["rejected/FP"][i] + by["rejected/FP-CP"][i]; v != 0 {
			t.Errorf("x=%g: rejected sets scored %g, want 0", x, v)
		}
	}
	if by["kept/FP-CP"][0] == 0 {
		t.Error("kept group lost its schedulable sets at the lowest utilization")
	}
	want := 2 * len(opts.Utilizations) * opts.TaskSetsPerPoint
	if log.Len() != want {
		t.Fatalf("checkpoint holds %d records, want %d (rejected sets included)", log.Len(), want)
	}

	// Replaying the checkpoint reruns neither the hook nor the engine.
	var calls atomic.Int64
	replay := opts
	replay.Analyze = func(reqs []core.BatchRequest, _ core.BatchOptions) ([][]*core.Result, error) {
		if len(reqs) > 0 {
			t.Errorf("replay analyzed %d recorded jobs", len(reqs))
		}
		return make([][]*core.Result, len(reqs)), nil
	}
	nu := len(opts.Utilizations)
	if _, err := sweep(replay, 2*nu, fixedConfig(t),
		func(p int) []float64 { return opts.Utilizations[p%nu : p%nu+1] },
		PaperVariants()[:2], countingPrepare(&calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Errorf("replay called the per-point hook %d times, want 0", calls.Load())
	}
}
