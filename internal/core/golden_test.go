package core

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden analysis outcomes")

// goldenOutcome pins the exact analysis numbers for one configuration
// so that refactorings of the fixed point, the CRPD/CPRO machinery or
// the benchmark suite are noticed immediately. Regenerate deliberately
// with: go test ./internal/core -run TestGolden -update
type goldenOutcome struct {
	Variant     string           `json:"variant"`
	Schedulable bool             `json:"schedulable"`
	WCRT        map[string]int64 `json:"wcrt,omitempty"` // "prio<N>" -> bound
}

func goldenPath() string {
	return filepath.Join("testdata", "golden_analysis.json")
}

func goldenTaskSet(t *testing.T) *taskmodel.TaskSet {
	t.Helper()
	cfg := taskgen.DefaultConfig()
	cfg.Platform.NumCores = 2
	cfg.TasksPerCore = 4
	cfg.CoreUtilization = 0.25
	pool, err := taskgen.PoolFromSuite(cfg.Platform.Cache)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(20200313)))
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func computeGolden(t *testing.T) []goldenOutcome {
	t.Helper()
	ts := goldenTaskSet(t)
	variants := []struct {
		name string
		cfg  Config
	}{
		{"FP", Config{Arbiter: FP}},
		{"FP-CP", Config{Arbiter: FP, Persistence: true}},
		{"RR", Config{Arbiter: RR}},
		{"RR-CP", Config{Arbiter: RR, Persistence: true}},
		{"TDMA", Config{Arbiter: TDMA}},
		{"TDMA-CP", Config{Arbiter: TDMA, Persistence: true}},
		{"Perfect", Config{Arbiter: Perfect, Persistence: true}},
	}
	var out []goldenOutcome
	for _, v := range variants {
		res, err := Analyze(ts, v.cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := goldenOutcome{Variant: v.name, Schedulable: res.Schedulable}
		if res.Schedulable {
			g.WCRT = map[string]int64{}
			for _, tr := range res.Tasks {
				g.WCRT[trKey(tr.Priority)] = int64(tr.WCRT)
			}
		}
		out = append(out, g)
	}
	return out
}

func trKey(prio int) string {
	return "prio" + string(rune('0'+prio))
}

func TestGoldenAnalysisOutcomes(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", goldenPath())
		return
	}
	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []goldenOutcome
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d variants, analysis produced %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Variant != g.Variant || w.Schedulable != g.Schedulable {
			t.Errorf("variant %s: schedulable %v, golden %v", g.Variant, g.Schedulable, w.Schedulable)
			continue
		}
		for k, wv := range w.WCRT {
			if gv := g.WCRT[k]; gv != wv {
				t.Errorf("variant %s %s: WCRT %d, golden %d", g.Variant, k, gv, wv)
			}
		}
	}
}
