package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/crpd"
	"repro/internal/persistence"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

// The differential test: the table-driven analyzer must return
// bit-identical Results to the retained naive reference across a
// fuzzed corpus — every arbiter, persistence on and off, and every
// CPRO approach, over task sets spanning schedulable, borderline and
// aborting regimes.

func differentialCorpus(t *testing.T, count int) []*taskmodel.TaskSet {
	t.Helper()
	var out []*taskmodel.TaskSet
	utils := []float64{0.2, 0.4, 0.6, 0.8, 0.95}
	coreCounts := []int{2, 4}
	tasksPerCore := []int{3, 6}
	// The event-driven engine snaps iterates between breakpoints whose
	// spacing depends on d_mem (carry-out ramp steps) and whose BAT
	// combination depends on the slot size (RR/TDMA), so both are fuzz
	// dimensions.
	dmems := []taskmodel.Time{2, 5, 9}
	slots := []int{1, 2, 4}
	// Regulation parameters stress the Regulated arbiter's two regimes:
	// Q=1 with a long period keeps remote cores budget-starved (the
	// regCap(t)+bas cap dominates), generous budgets make the plain
	// bao term dominate, and a short period exercises many replenishment
	// breakpoints per window.
	regBudgets := []int64{1, 4, 12}
	regPeriods := []taskmodel.Time{50, 150, 400}
	seed := int64(0)
	for len(out) < count {
		cfg := taskgen.DefaultConfig()
		cfg.Platform.NumCores = coreCounts[seed%int64(len(coreCounts))]
		cfg.TasksPerCore = tasksPerCore[(seed/2)%int64(len(tasksPerCore))]
		cfg.CoreUtilization = utils[(seed/4)%int64(len(utils))]
		cfg.Platform.DMem = dmems[(seed/3)%int64(len(dmems))]
		cfg.Platform.SlotSize = slots[(seed/7)%int64(len(slots))]
		cfg.Platform.RegBudget = regBudgets[(seed/5)%int64(len(regBudgets))]
		cfg.Platform.RegPeriod = regPeriods[(seed/11)%int64(len(regPeriods))]
		pool, err := taskgen.PoolFromSuite(cfg.Platform.Cache)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ts)
		seed++
	}
	return out
}

func differentialConfigs() []Config {
	// Every declared arbiter (including Regulated and ParAware) crossed
	// with persistence off and each CPRO approach. The CRPD approach
	// rotates through all five values across the grid rather than
	// multiplying it: every approach still meets several arbiters and
	// vice versa, at a fifth of the cost of the full product.
	crpds := []crpd.Approach{
		crpd.ECBUnion, crpd.UCBOnly, crpd.ECBOnly, crpd.UCBUnion, crpd.Combined,
	}
	var cfgs []Config
	for ai, arb := range Arbiters() {
		cfgs = append(cfgs, Config{Arbiter: arb, Persistence: false, CRPD: crpds[ai%len(crpds)]})
		for pi, cpro := range []persistence.CPROApproach{
			persistence.Union, persistence.MultisetUnion,
			persistence.FullReload, persistence.None,
		} {
			cfgs = append(cfgs, Config{
				Arbiter: arb, Persistence: true, CPRO: cpro,
				CRPD: crpds[(ai+pi+1)%len(crpds)],
			})
		}
	}
	return cfgs
}

func TestDifferentialTableVsReference(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 40
	}
	cfgs := differentialConfigs()
	aborts := 0
	for si, ts := range differentialCorpus(t, count) {
		for _, cfg := range cfgs {
			got, err := Analyze(ts, cfg, Options{})
			if err != nil {
				t.Fatalf("set %d %+v: Analyze: %v", si, cfg, err)
			}
			want, err := AnalyzeReference(ts, cfg)
			if err != nil {
				t.Fatalf("set %d %+v: AnalyzeReference: %v", si, cfg, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("set %d %+v: results diverge\n table: %+v\n naive: %+v", si, cfg, got, want)
			}
			if !got.Complete {
				aborts++
			}
		}
	}
	if aborts == 0 {
		t.Error("corpus never exercised the abort path; tighten the generator utilizations")
	}
}

// TestDifferentialSharedTables repeats the comparison through the
// AnalyzeAll path, where one Tables instance is shared across all
// configurations of a task set.
func TestDifferentialSharedTables(t *testing.T) {
	count := 40
	if testing.Short() {
		count = 10
	}
	cfgs := differentialConfigs()
	for si, ts := range differentialCorpus(t, count) {
		all, err := AnalyzeAll(ts, cfgs)
		if err != nil {
			t.Fatalf("set %d: AnalyzeAll: %v", si, err)
		}
		for ci, cfg := range cfgs {
			want, err := AnalyzeReference(ts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(all[ci], want) {
				t.Fatalf("set %d %+v: shared-tables result diverges\n table: %+v\n naive: %+v",
					si, cfg, all[ci], want)
			}
		}
	}
}

// TestDifferentialBatch covers the worker-pool entry point end to end.
func TestDifferentialBatch(t *testing.T) {
	sets := differentialCorpus(t, 12)
	cfgs := differentialConfigs()
	reqs := make([]BatchRequest, len(sets))
	for i, ts := range sets {
		reqs[i] = BatchRequest{TS: ts, Cfgs: cfgs}
	}
	got, err := AnalyzeBatchOpts(reqs, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatalf("AnalyzeBatchOpts: %v", err)
	}
	for i, ts := range sets {
		for ci, cfg := range cfgs {
			want, err := AnalyzeReference(ts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i][ci], want) {
				t.Fatalf("req %d cfg %+v: batch result diverges", i, cfg)
			}
		}
	}
	if _, err := AnalyzeBatchOpts(nil, BatchOptions{}); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestTablesReuseAcrossDMem pins the sensitivity-analysis contract:
// tables built once remain valid for clones differing only in d_mem.
func TestTablesReuseAcrossDMem(t *testing.T) {
	for _, ts := range differentialCorpus(t, 4) {
		cfg := Config{Arbiter: RR, Persistence: true}
		tbl := precomputeTables(ts, cfg.CRPD)
		for _, d := range []taskmodel.Time{1, 3, 17} {
			clone := cloneWithDMem(ts, d)
			a, err := newAnalyzerWithTables(clone, cfg, tbl)
			if err != nil {
				t.Fatal(err)
			}
			want, err := AnalyzeReference(clone, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := a.Run(); !reflect.DeepEqual(got, want) {
				t.Fatalf("d_mem %d: reused-tables result diverges", d)
			}
		}
	}
}

// TestDifferentialAbortVerdicts pins the abort path specifically: when
// the fixed point aborts on a provable deadline miss, the accelerated
// analyzer must report the same per-task verdicts as the naive one —
// the same task flagged as the miss (Verified, not Schedulable), the
// same tasks left unverified, and identical mid-iteration WCRT
// estimates. Breakpoint jumps may only land on iterates the naive
// chain also visits, so the r > D_i detection must trip at the same
// value; this test fails loudly if a jump ever overshoots a deadline
// boundary the naive analyzer would have caught at a smaller iterate.
func TestDifferentialAbortVerdicts(t *testing.T) {
	cfgs := differentialConfigs()
	missVerdicts := 0
	unverified := 0
	for si, ts := range differentialCorpus(t, 60) {
		for _, cfg := range cfgs {
			got, err := Analyze(ts, cfg, Options{})
			if err != nil {
				t.Fatalf("set %d %+v: Analyze: %v", si, cfg, err)
			}
			if got.Complete {
				continue
			}
			want, err := AnalyzeReference(ts, cfg)
			if err != nil {
				t.Fatalf("set %d %+v: AnalyzeReference: %v", si, cfg, err)
			}
			if want.Complete {
				t.Fatalf("set %d %+v: accelerated path aborted, reference converged", si, cfg)
			}
			if len(got.Tasks) != len(want.Tasks) {
				t.Fatalf("set %d %+v: abort reported %d task verdicts, reference %d",
					si, cfg, len(got.Tasks), len(want.Tasks))
			}
			for k := range got.Tasks {
				g, w := got.Tasks[k], want.Tasks[k]
				if g.Name != w.Name || g.Verified != w.Verified ||
					g.Schedulable != w.Schedulable || g.WCRT != w.WCRT {
					t.Fatalf("set %d %+v task %q: abort verdict diverges\n table: %+v\n naive: %+v",
						si, cfg, w.Name, g, w)
				}
				if g.Verified && !g.Schedulable {
					missVerdicts++
				}
				if !g.Verified {
					unverified++
				}
			}
		}
	}
	if missVerdicts == 0 {
		t.Error("no proven deadline-miss verdicts exercised; tighten the corpus")
	}
	if unverified == 0 {
		t.Error("no unverified (mid-iteration) tasks exercised; tighten the corpus")
	}
}

// TestResponseTimeZeroAlloc pins the allocation-free inner loop: once
// an analyzer has run to a fixed point, re-evaluating any level's
// response time — cursor reset, breakpoint advances, BAT combination
// and all — must not allocate. The warm-up Run matters: the per-level
// cursor state and the lazy table rows/curves allocate on first touch
// of each level, never after.
func TestResponseTimeZeroAlloc(t *testing.T) {
	for _, cfg := range []Config{
		{Arbiter: FP, Persistence: true, CPRO: persistence.MultisetUnion},
		{Arbiter: RR, Persistence: true, CPRO: persistence.Union},
		{Arbiter: TDMA, Persistence: false},
		{Arbiter: Regulated, Persistence: true, CPRO: persistence.Union},
		{Arbiter: ParAware, Persistence: false},
	} {
		ts := differentialCorpus(t, 1)[0]
		a, err := NewAnalyzer(ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res := a.Run(); !res.Complete {
			t.Fatalf("%+v: warm-up run aborted; pick a schedulable corpus entry", cfg)
		}
		for _, task := range ts.Tasks {
			prio := task.Priority
			if avg := testing.AllocsPerRun(50, func() {
				if _, ok := a.ResponseTime(prio); !ok {
					t.Fatal("warm ResponseTime diverged")
				}
			}); avg != 0 {
				t.Errorf("%+v prio %d: ResponseTime allocates %v times per call, want 0", cfg, prio, avg)
			}
		}
	}
}

// TestAnalyzerWithTablesRejectsMismatch ensures the compatibility check
// refuses task sets the cached terms were not built for.
func TestAnalyzerWithTablesRejectsMismatch(t *testing.T) {
	sets := differentialCorpus(t, 2)
	tbl := precomputeTables(sets[0], 0)
	scaled := cloneScaled(sets[0], 2.0)
	if _, err := newAnalyzerWithTables(scaled, Config{Arbiter: FP}, tbl); err == nil {
		t.Error("period-scaled clone accepted against stale tables")
	}
	if _, err := newAnalyzerWithTables(sets[1], Config{Arbiter: FP}, tbl); err == nil {
		t.Error("unrelated task set accepted against foreign tables")
	}
	if _, err := newAnalyzerWithTables(sets[0], Config{Arbiter: FP, CRPD: 2}, tbl); err == nil {
		t.Error("CRPD mismatch accepted")
	}
}
