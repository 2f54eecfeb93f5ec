package experiments

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

// TestSeedForUnique: across a paper-scale grid — 1000 samples × the
// 20-step utilization grid, for several base seeds — no two jobs may
// share an RNG seed. The former linear formula failed this at a few
// hundred samples.
func TestSeedForUnique(t *testing.T) {
	utils := DefaultUtilizations()
	for _, base := range []int64{0, 1, 42, -7, 1 << 40} {
		seen := make(map[int64][2]int, 1000*len(utils))
		for sample := 0; sample < 1000; sample++ {
			for ui, u := range utils {
				s := seedFor(base, sample, u)
				if prev, dup := seen[s]; dup {
					t.Fatalf("base %d: seed collision between (sample %d, util %g) and (sample %d, util %g)",
						base, sample, u, prev[0], utils[prev[1]])
				}
				seen[s] = [2]int{sample, ui}
			}
		}
	}
}

// TestSeedForDistinctBases: different base seeds must produce disjoint
// job seeds (spot check), and the derivation must be deterministic.
func TestSeedForDistinctBases(t *testing.T) {
	if seedFor(1, 3, 0.25) != seedFor(1, 3, 0.25) {
		t.Fatal("seedFor is not deterministic")
	}
	if seedFor(1, 3, 0.25) == seedFor(2, 3, 0.25) {
		t.Error("base seed does not influence the job seed")
	}
	if seedFor(1, 3, 0.25) == seedFor(1, 4, 0.25) {
		t.Error("sample index does not influence the job seed")
	}
	if seedFor(1, 3, 0.25) == seedFor(1, 3, 0.30) {
		t.Error("utilization does not influence the job seed")
	}
}

// TestSeedForPairedSamples pins the paired-samples design the sweeps
// rely on: the job seed excludes the swept point index, so two sweep
// points that differ only in a platform parameter (here Fig3d's slot
// size) draw identical task sets at the same (sample, utilization) —
// their series differ only through the analysis, never the sample.
func TestSeedForPairedSamples(t *testing.T) {
	base := taskgen.DefaultConfig()
	base.Platform.NumCores = 2
	base.TasksPerCore = 4
	pool, err := taskgen.PoolFromSuite(base.Platform.Cache)
	if err != nil {
		t.Fatal(err)
	}
	generate := func(slot int, util float64, sample int) *taskmodel.TaskSet {
		t.Helper()
		cfg := base
		cfg.Platform.SlotSize = slot
		cfg.CoreUtilization = util
		// Exactly the sweep's derivation path: seedFor(base, sample, util).
		ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(seedFor(2020, sample, util))))
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	for _, util := range []float64{0.3, 0.7} {
		for sample := 0; sample < 3; sample++ {
			a := generate(1, util, sample)
			b := generate(4, util, sample)
			if !reflect.DeepEqual(a.Tasks, b.Tasks) {
				t.Errorf("util %g sample %d: task sets differ across sweep points — pairing broken", util, sample)
			}
			if a.Platform.SlotSize == b.Platform.SlotSize {
				t.Fatal("test is vacuous: both points got the same platform")
			}
		}
	}
	// The pairing must not collapse everything: different samples (and
	// different utilizations) still draw different task sets.
	if reflect.DeepEqual(generate(1, 0.3, 0).Tasks, generate(1, 0.3, 1).Tasks) {
		t.Error("distinct samples drew identical task sets")
	}
	if reflect.DeepEqual(generate(1, 0.3, 0).Tasks, generate(1, 0.7, 0).Tasks) {
		t.Error("distinct utilizations drew identical task sets")
	}
}

// TestDefaultUtilizations pins the exact grid: twenty steps of
// exactly 0.05, no float drift.
func TestDefaultUtilizations(t *testing.T) {
	want := []float64{
		0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
		0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00,
	}
	got := DefaultUtilizations()
	if len(got) != len(want) {
		t.Fatalf("grid has %d steps, want %d", len(got), len(want))
	}
	for i, u := range got {
		// Exact equality on purpose: the grid must match the literal
		// constants bit for bit (an accumulating loop yields
		// 0.15000000000000002 at step 3).
		if u != want[i] {
			t.Errorf("step %d = %v, want %v", i, u, want[i])
		}
	}
}

// TestVerdictsMatchesAnalyze: the shared-tables verdict fold must
// agree with independent per-variant analyses.
func TestVerdictsMatchesAnalyze(t *testing.T) {
	base := taskgen.DefaultConfig()
	base.Platform.NumCores = 2
	base.TasksPerCore = 4
	base.CoreUtilization = 0.4
	pool, err := taskgen.PoolFromSuite(base.Platform.Cache)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := taskgen.Generate(base, pool, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	variants := PaperVariants()
	all, err := core.AnalyzeAll(ts, variantConfigs(variants))
	if err != nil {
		t.Fatal(err)
	}
	got := verdictMap(all, variants)
	for _, v := range variants {
		res, err := core.Analyze(ts, v.Config, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got[v.Name] != res.Schedulable {
			t.Errorf("%s: verdicts %v, Analyze %v", v.Name, got[v.Name], res.Schedulable)
		}
	}
}
