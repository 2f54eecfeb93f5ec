package opa

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

func genSet(t *testing.T, seed int64, util float64) *taskmodel.TaskSet {
	t.Helper()
	cfg := taskgen.DefaultConfig()
	cfg.Platform.NumCores = 2
	cfg.TasksPerCore = 4
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

func TestAssignFindsValidAssignment(t *testing.T) {
	cfg := core.Config{Arbiter: core.RR, Persistence: true}
	for seed := int64(0); seed < 10; seed++ {
		ts := genSet(t, seed, 0.25)
		res, err := Assign(ts, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Schedulable {
			continue // nothing claimed, nothing to verify
		}
		// Priorities form a permutation.
		seen := map[int]bool{}
		for _, p := range res.Priorities {
			if p < 0 || p >= len(ts.Tasks) || seen[p] {
				t.Fatalf("seed %d: invalid priority assignment %v", seed, res.Priorities)
			}
			seen[p] = true
		}
		// Applying it yields a set the full analysis accepts.
		applied, err := ApplyTo(ts, res)
		if err != nil {
			t.Fatalf("seed %d: ApplyTo: %v", seed, err)
		}
		full, err := core.Analyze(applied, cfg, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !full.Schedulable {
			t.Fatalf("seed %d: OPA claimed schedulable but full analysis disagrees", seed)
		}
	}
}

func TestAssignPreservesInputPriorities(t *testing.T) {
	ts := genSet(t, 3, 0.3)
	before := make([]int, len(ts.Tasks))
	for i, task := range ts.Tasks {
		before[i] = task.Priority
	}
	if _, err := Assign(ts, core.Config{Arbiter: core.RR, Persistence: true}); err != nil {
		t.Fatal(err)
	}
	for i, task := range ts.Tasks {
		if task.Priority != before[i] {
			t.Fatalf("task %d priority mutated: %d -> %d", i, before[i], task.Priority)
		}
	}
}

func TestAssignAtLeastAsGoodAsDMEmpirically(t *testing.T) {
	// OPA is not provably optimal for this (non-OPA-compatible) test,
	// but on a seeded sample it must schedule at least as many sets as
	// the generator's deadline-monotonic default.
	cfg := core.Config{Arbiter: core.RR, Persistence: true}
	dm, opaWins := 0, 0
	for seed := int64(0); seed < 15; seed++ {
		ts := genSet(t, seed, 0.3)
		full, err := core.Analyze(ts, cfg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if full.Schedulable {
			dm++
		}
		res, err := Assign(ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedulable {
			opaWins++
		}
		// Anything DM schedules, OPA must find *some* assignment for —
		// DM itself is a witness the probe search can discover.
		if full.Schedulable && !res.Schedulable {
			t.Errorf("seed %d: DM schedulable but OPA found nothing", seed)
		}
	}
	if opaWins < dm {
		t.Errorf("OPA scheduled %d sets, DM %d", opaWins, dm)
	}
}

func TestAssignErrors(t *testing.T) {
	empty := taskmodel.NewTaskSet(taskgen.DefaultConfig().Platform, nil)
	if _, err := Assign(empty, core.Config{Arbiter: core.RR}); err == nil {
		t.Error("empty task set accepted")
	}
	ts := genSet(t, 1, 0.2)
	if _, err := ApplyTo(ts, &Result{Schedulable: false}); err == nil {
		t.Error("ApplyTo of failed result accepted")
	}
	if _, err := ApplyTo(ts, &Result{Schedulable: true, Priorities: []int{0}}); err == nil {
		t.Error("ApplyTo with wrong length accepted")
	}
}

func TestAssignUnschedulableReportsLevel(t *testing.T) {
	ts := genSet(t, 2, 0.95) // hopeless load
	res, err := Assign(ts, core.Config{Arbiter: core.TDMA, Persistence: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Skip("unexpectedly schedulable at 0.95; nothing to assert")
	}
	if res.FailedLevel < 0 || res.FailedLevel >= len(ts.Tasks) {
		// -1 is also legal (final verification failure); only check
		// range when a level is reported.
		if res.FailedLevel != -1 {
			t.Errorf("FailedLevel = %d out of range", res.FailedLevel)
		}
	}
}
