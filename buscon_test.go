package buscon_test

import (
	"math/rand"
	"strings"
	"testing"

	buscon "repro"
)

func TestFacadeEndToEnd(t *testing.T) {
	plat := buscon.DefaultPlatform()
	if plat.NumCores != 4 || plat.Cache.NumSets != 256 || plat.DMem != 5 || plat.SlotSize != 2 {
		t.Fatalf("DefaultPlatform = %+v", plat)
	}
	pool, err := buscon.BenchmarkPool(plat.Cache)
	if err != nil {
		t.Fatalf("BenchmarkPool: %v", err)
	}
	if len(pool) != 20 {
		t.Fatalf("pool size = %d, want 20", len(pool))
	}
	ts, err := buscon.GenerateTaskSet(buscon.GenConfig{
		Platform:        plat,
		TasksPerCore:    8,
		CoreUtilization: 0.3,
	}, pool, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("GenerateTaskSet: %v", err)
	}
	if len(ts.Tasks) != 32 {
		t.Fatalf("tasks = %d, want 32", len(ts.Tasks))
	}

	if arbs := buscon.Arbiters(); len(arbs) != 6 {
		t.Fatalf("Arbiters() = %v, want 6 declared arbiters", arbs)
	}
	for _, arb := range buscon.Arbiters() {
		base, err := buscon.Analyze(ts, buscon.AnalysisConfig{Arbiter: arb})
		if err != nil {
			t.Fatalf("%v: %v", arb, err)
		}
		aware, err := buscon.Analyze(ts, buscon.AnalysisConfig{Arbiter: arb, Persistence: true})
		if err != nil {
			t.Fatalf("%v: %v", arb, err)
		}
		if base.Schedulable && !aware.Schedulable {
			t.Errorf("%v: persistence-aware lost a baseline-schedulable set", arb)
		}
		if len(base.Tasks) != 32 || len(aware.Tasks) != 32 {
			t.Errorf("%v: result task counts %d/%d", arb, len(base.Tasks), len(aware.Tasks))
		}
	}
}

func TestFacadeNewTaskSet(t *testing.T) {
	plat := buscon.DefaultPlatform()
	pool, err := buscon.BenchmarkPool(plat.Cache)
	if err != nil {
		t.Fatal(err)
	}
	p := pool[0]
	task := &buscon.Task{
		Name: p.Name, Core: 0, Priority: 0,
		PD: p.PD, MD: p.MD, MDr: p.MDr,
		Period: 1_000_000, Deadline: 1_000_000,
		UCB: p.UCB, ECB: p.ECB, PCB: p.PCB,
	}
	ts := buscon.NewTaskSet(plat, []*buscon.Task{task})
	res, err := buscon.Analyze(ts, buscon.AnalysisConfig{Arbiter: buscon.FP, Persistence: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatal("single light task must be schedulable")
	}
	want := p.PD + buscon.Time(p.MD)*plat.DMem
	if got := res.Tasks[0].WCRT; got != want {
		t.Errorf("WCRT = %d, want isolated demand %d", got, want)
	}
}

func TestFacadeExplainAndSensitivity(t *testing.T) {
	plat := buscon.DefaultPlatform()
	plat.NumCores = 2
	pool, err := buscon.BenchmarkPool(plat.Cache)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := buscon.GenerateTaskSet(buscon.GenConfig{
		Platform: plat, TasksPerCore: 3, CoreUtilization: 0.2,
	}, pool, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := buscon.AnalysisConfig{Arbiter: buscon.RR, Persistence: true}

	ex, err := buscon.Explain(ts, cfg, ts.Tasks[len(ts.Tasks)-1].Priority)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if ex.BAT <= 0 || ex.BusTime != buscon.Time(ex.BAT)*plat.DMem {
		t.Errorf("explanation inconsistent: %+v", ex)
	}

	maxD, err := buscon.MaxDMem(ts, cfg, 1<<14)
	if err != nil {
		t.Fatalf("MaxDMem: %v", err)
	}
	if maxD < plat.DMem {
		res, err := buscon.Analyze(ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedulable {
			t.Errorf("MaxDMem %d below platform d_mem %d for a schedulable set", maxD, plat.DMem)
		}
	}

	k, err := buscon.CriticalScaling(ts, cfg, 1e-3)
	if err != nil {
		t.Fatalf("CriticalScaling: %v", err)
	}
	if k <= 0 {
		t.Errorf("CriticalScaling = %g", k)
	}
}

func TestFacadeSimulateSuite(t *testing.T) {
	plat := buscon.DefaultPlatform()
	plat.NumCores = 2
	plat.Cache.NumSets = 64
	pool, err := buscon.BenchmarkPool(plat.Cache)
	if err != nil {
		t.Fatal(err)
	}
	// Restrict to small-trace benchmarks to keep the horizon cheap.
	var small []buscon.BenchmarkParams
	for _, p := range pool {
		switch p.Name {
		case "lcdnum", "cnt", "qurt":
			small = append(small, p)
		}
	}
	ts, err := buscon.GenerateTaskSet(buscon.GenConfig{
		Platform: plat, TasksPerCore: 2, CoreUtilization: 0.2,
	}, small, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := buscon.AnalysisConfig{Arbiter: buscon.RR, Persistence: true}
	ana, err := buscon.Analyze(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := buscon.SimulateSuite(ts, buscon.RR, 2)
	if err != nil {
		t.Fatalf("SimulateSuite: %v", err)
	}
	if simRes.DeadlineMisses != 0 && ana.Schedulable {
		t.Fatal("observed deadline misses for a schedulable set")
	}
	if ana.Schedulable {
		for _, tr := range ana.Tasks {
			if obs := simRes.MaxResponse[tr.Priority]; obs > tr.WCRT {
				t.Fatalf("task %s: observed %d > bound %d", tr.Name, obs, tr.WCRT)
			}
		}
	}
	if _, err := buscon.SimulateSuite(ts, buscon.Perfect, 1); err == nil {
		t.Fatal("Perfect arbiter accepted by the simulator")
	}
}

// TestArbiterCompletenessFacade drives every declared arbiter through
// each public entry point that switches on it. New arbiters must either
// be handled or rejected with a clean error; an engine panic or a
// silent wrong-policy fallthrough fails here before it can ship.
func TestArbiterCompletenessFacade(t *testing.T) {
	plat := buscon.DefaultPlatform()
	plat.NumCores = 2
	plat.Cache.NumSets = 64
	pool, err := buscon.BenchmarkPool(plat.Cache)
	if err != nil {
		t.Fatal(err)
	}
	var small []buscon.BenchmarkParams
	for _, p := range pool {
		switch p.Name {
		case "lcdnum", "cnt", "qurt":
			small = append(small, p)
		}
	}
	ts, err := buscon.GenerateTaskSet(buscon.GenConfig{
		Platform: plat, TasksPerCore: 2, CoreUtilization: 0.2,
	}, small, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, arb := range buscon.Arbiters() {
		cfg := buscon.AnalysisConfig{Arbiter: arb, Persistence: true}
		if _, err := buscon.Analyze(ts, cfg); err != nil {
			t.Errorf("Analyze(%v): %v", arb, err)
		}
		if _, err := buscon.Explain(ts, cfg, ts.Tasks[len(ts.Tasks)-1].Priority); err != nil {
			t.Errorf("Explain(%v): %v", arb, err)
		}
		_, err := buscon.SimulateSuite(ts, arb, 1)
		if arb == buscon.Perfect {
			// The contention-free bus has no cycle-accurate counterpart;
			// the rejection must be an error, not a panic or a wrong
			// policy.
			if err == nil {
				t.Error("SimulateSuite(Perfect) did not reject")
			}
		} else if err != nil {
			t.Errorf("SimulateSuite(%v): %v", arb, err)
		}
	}
	// An out-of-range arbiter must be rejected everywhere, cleanly.
	bogus := buscon.AnalysisConfig{Arbiter: buscon.Arbiter(99)}
	if _, err := buscon.Analyze(ts, bogus); err == nil {
		t.Error("Analyze accepted an undeclared arbiter")
	}
	if _, err := buscon.Explain(ts, bogus, 0); err == nil {
		t.Error("Explain accepted an undeclared arbiter")
	}
	if _, err := buscon.SimulateSuite(ts, buscon.Arbiter(99), 1); err == nil {
		t.Error("SimulateSuite accepted an undeclared arbiter")
	}
}

func TestFacadeBatch(t *testing.T) {
	plat := buscon.DefaultPlatform()
	plat.NumCores = 2
	pool, err := buscon.BenchmarkPool(plat.Cache)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []buscon.AnalysisConfig{
		{Arbiter: buscon.FP}, {Arbiter: buscon.FP, Persistence: true},
		{Arbiter: buscon.RR}, {Arbiter: buscon.RR, Persistence: true},
	}
	var reqs []buscon.BatchRequest
	var sets []*buscon.TaskSet
	for seed := int64(0); seed < 3; seed++ {
		ts, err := buscon.GenerateTaskSet(buscon.GenConfig{
			Platform: plat, TasksPerCore: 4, CoreUtilization: 0.3,
		}, pool, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ts)
		reqs = append(reqs, buscon.BatchRequest{TS: ts, Cfgs: cfgs})
	}
	batch, err := buscon.AnalyzeBatch(reqs, 2)
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("batch results = %d, want %d", len(batch), len(reqs))
	}
	for i, ts := range sets {
		all, err := buscon.AnalyzeAll(ts, cfgs)
		if err != nil {
			t.Fatalf("AnalyzeAll: %v", err)
		}
		for ci := range cfgs {
			single, err := buscon.Analyze(ts, cfgs[ci])
			if err != nil {
				t.Fatal(err)
			}
			if all[ci].Schedulable != single.Schedulable ||
				batch[i][ci].Schedulable != single.Schedulable {
				t.Errorf("set %d cfg %+v: verdicts disagree across entry points", i, cfgs[ci])
			}
		}
	}
}

// TestFacadeBatchRejectsInvalidTaskSet: a request whose task set fails
// validation makes AnalyzeBatch return that validation error and no
// results, even when the other requests of the batch are healthy.
func TestFacadeBatchRejectsInvalidTaskSet(t *testing.T) {
	plat := buscon.DefaultPlatform()
	pool, err := buscon.BenchmarkPool(plat.Cache)
	if err != nil {
		t.Fatal(err)
	}
	gen := buscon.GenConfig{Platform: plat, TasksPerCore: 2, CoreUtilization: 0.3}
	good, err := buscon.GenerateTaskSet(gen, pool, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := buscon.GenerateTaskSet(gen, pool, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	bad.Tasks[0].Period = 0
	cfgs := []buscon.AnalysisConfig{{Arbiter: buscon.FP}}
	out, err := buscon.AnalyzeBatch([]buscon.BatchRequest{
		{TS: good, Cfgs: cfgs}, {TS: bad, Cfgs: cfgs}, {TS: good, Cfgs: cfgs},
	}, 2)
	if err == nil || !strings.Contains(err.Error(), "period 0") {
		t.Fatalf("AnalyzeBatch err = %v, want the validation error naming period 0", err)
	}
	if out != nil {
		t.Errorf("AnalyzeBatch returned results %v alongside its error", out)
	}
}
