package core

import (
	"math/rand"
	"testing"

	"repro/internal/cacheset"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

func soloTDMASet(dmem taskmodel.Time) *taskmodel.TaskSet {
	n := 4
	plat := taskmodel.Platform{
		NumCores: 2,
		Cache:    taskmodel.CacheConfig{NumSets: n, BlockSizeBytes: 32},
		DMem:     dmem,
		SlotSize: 2,
	}
	solo := &taskmodel.Task{
		Name: "solo", Core: 0, Priority: 0,
		PD: 50, MD: 10, MDr: 10, Period: 1000, Deadline: 1000,
		ECB: cacheset.Of(n, 0), UCB: cacheset.New(n), PCB: cacheset.New(n),
	}
	return taskmodel.NewTaskSet(plat, []*taskmodel.Task{solo})
}

func TestMaxDMemExactOnSoloTDMA(t *testing.T) {
	// R = PD + MD·(1+(m−1)·s)·d = 50 + 30d ≤ 1000 ⇒ d ≤ 31.
	ts := soloTDMASet(5)
	got, err := MaxDMem(ts, Config{Arbiter: TDMA}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 31 {
		t.Fatalf("MaxDMem = %d, want 31", got)
	}
	// Verify the edge explicitly.
	if res, _ := Analyze(cloneWithDMem(ts, 31), Config{Arbiter: TDMA}, Options{}); !res.Schedulable {
		t.Fatal("reported edge not schedulable")
	}
	if res, _ := Analyze(cloneWithDMem(ts, 32), Config{Arbiter: TDMA}, Options{}); res.Schedulable {
		t.Fatal("edge+1 unexpectedly schedulable")
	}
}

func TestMaxDMemUnschedulableAtOne(t *testing.T) {
	ts := soloTDMASet(5)
	ts.Tasks[0].Deadline = 60 // 50 + 30·1 = 80 > 60 even at d=1
	ts.Tasks[0].Period = 60
	got, err := MaxDMem(ts, Config{Arbiter: TDMA}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("MaxDMem = %d, want 0", got)
	}
}

func TestMaxDMemHitsLimit(t *testing.T) {
	ts := soloTDMASet(5)
	got, err := MaxDMem(ts, Config{Arbiter: TDMA}, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("MaxDMem(limit=10) = %d, want 10 (schedulable everywhere below the edge)", got)
	}
}

func TestCriticalScalingSoloTask(t *testing.T) {
	// Solo TDMA task: R = 200 at d=5; schedulable iff D = 1000k >= 200,
	// so the critical scaling is 0.2.
	ts := soloTDMASet(5)
	k, err := CriticalScaling(ts, Config{Arbiter: TDMA}, 1e-4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k < 0.19 || k > 0.21 {
		t.Fatalf("CriticalScaling = %g, want ~0.2", k)
	}
	// The reported factor is actually schedulable; slightly below is not.
	if res, _ := Analyze(cloneScaled(ts, k), Config{Arbiter: TDMA}, Options{}); !res.Schedulable {
		t.Fatal("reported scaling not schedulable")
	}
	if res, _ := Analyze(cloneScaled(ts, k*0.95), Config{Arbiter: TDMA}, Options{}); res.Schedulable {
		t.Fatal("5%% below the critical scaling unexpectedly schedulable")
	}
}

func TestCriticalScalingOnGeneratedSets(t *testing.T) {
	cfg := taskgen.DefaultConfig()
	cfg.Platform.NumCores = 2
	cfg.TasksPerCore = 4
	cfg.CoreUtilization = 0.3
	pool, err := taskgen.PoolFromSuite(cfg.Platform.Cache)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		anaCfg := Config{Arbiter: RR, Persistence: true}
		k, err := CriticalScaling(ts, anaCfg, 1e-3, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		base, err := Analyze(ts, anaCfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if base.Schedulable && k > 1.0+1e-9 {
			t.Errorf("seed %d: schedulable set but critical scaling %g > 1", seed, k)
		}
		if !base.Schedulable && k < 1.0-1e-9 {
			t.Errorf("seed %d: unschedulable set but critical scaling %g < 1", seed, k)
		}
		// Persistence awareness can only lower the critical scaling.
		kBase, err := CriticalScaling(ts, Config{Arbiter: RR}, 1e-3, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if k > kBase*1.01 {
			t.Errorf("seed %d: CP critical scaling %g above baseline %g", seed, k, kBase)
		}
	}
}

func TestCloneScaledClampsDeadlines(t *testing.T) {
	ts := soloTDMASet(5)
	scaled := cloneScaled(ts, 0.0001)
	for _, task := range scaled.Tasks {
		if task.Period < 1 || task.Deadline < 1 || task.Deadline > task.Period {
			t.Fatalf("scaled task has invalid timing: T=%d D=%d", task.Period, task.Deadline)
		}
	}
	// Scaling must not mutate the original.
	if ts.Tasks[0].Period != 1000 {
		t.Fatal("cloneScaled mutated the input")
	}
}
