package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
)

func TestExplainFig1Tau2(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	ex, err := Explain(ts, Config{Arbiter: RR, Persistence: true}, 1)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if ex.Task != "tau2" || ex.Core != 0 || ex.Priority != 1 {
		t.Fatalf("identity = %+v", ex)
	}
	if !ex.Schedulable {
		t.Fatal("τ2 should be schedulable in the Fig. 1 setup")
	}
	if ex.OwnMD != 8 || ex.PD != 32 {
		t.Errorf("own demand = PD %d / MD %d, want 32/8", ex.PD, ex.OwnMD)
	}
	if len(ex.SameCore) != 1 || ex.SameCore[0].Task != "tau1" {
		t.Fatalf("SameCore = %+v, want one τ1 term", ex.SameCore)
	}
	sc := ex.SameCore[0]
	if sc.AwareDemand > sc.PlainDemand {
		t.Errorf("aware demand %d exceeds plain %d", sc.AwareDemand, sc.PlainDemand)
	}
	if sc.CRPD != sc.Jobs*2 {
		t.Errorf("CRPD = %d, want jobs×γ = %d×2", sc.CRPD, sc.Jobs)
	}
	// Consistency: BAS = MD_i + Σ aware + Σ CRPD.
	want := ex.OwnMD + sc.AwareDemand + sc.CRPD
	if ex.BAS != want {
		t.Errorf("BAS = %d, want %d (decomposition must add up)", ex.BAS, want)
	}
	// One remote core with a clamped-or-not term.
	if len(ex.Remote) != 1 || ex.Remote[0].Core != 1 {
		t.Fatalf("Remote = %+v", ex.Remote)
	}
	// BAT consistency for RR: BAS + Σ remote + blocking.
	total := ex.BAS + ex.Blocking
	for _, rc := range ex.Remote {
		total += rc.Accesses
	}
	if ex.BAT != total {
		t.Errorf("BAT = %d, decomposition sums to %d", ex.BAT, total)
	}
	if ex.BusTime != taskTime(ex.BAT)*ts.Platform.DMem {
		t.Errorf("BusTime = %d, want BAT×d_mem", ex.BusTime)
	}
}

func taskTime(v int64) int64 { return v }

func TestExplainDecompositionAllArbiters(t *testing.T) {
	ts := explainSets(t)[0]
	for _, arb := range Arbiters() {
		for _, p := range []bool{false, true} {
			ex, err := Explain(ts, Config{Arbiter: arb, Persistence: p}, 1)
			if err != nil {
				t.Fatalf("%v: %v", arb, err)
			}
			total := ex.BAS + ex.SlotWait + ex.Blocking
			for _, rc := range ex.Remote {
				total += rc.Accesses
			}
			if ex.BAT != total {
				t.Errorf("%v persistence=%v: BAT %d != decomposition %d", arb, p, ex.BAT, total)
			}
			// TDMA's slot waiting is its own term; it and Perfect charge
			// no remote demand.
			if (arb == TDMA || arb == Perfect) != (len(ex.Remote) == 0) {
				t.Errorf("%v persistence=%v: remote terms %+v", arb, p, ex.Remote)
			}
		}
	}
}

func TestExplainDecompositionSumsToBAT(t *testing.T) {
	// For every arbiter, persistence mode and CPRO approach the
	// decomposition must reconstruct the bounds exactly —
	//   BAS = OwnMD + Σ (AwareDemand + CRPD)
	//   BAT = BAS + SlotWait + Σ Remote.Accesses + Blocking
	// — BAT must equal the oracle's at the reported response time, with
	// the oracle's estimates seeded from the analysis result, and a
	// verified schedulable bound must cover its own terms.
	for si, ts := range explainSets(t) {
		for _, cfg := range explainConfigs() {
			res, err := Analyze(ts, cfg, Options{})
			if err != nil {
				t.Fatalf("set %d %+v: %v", si, cfg, err)
			}
			ref, err := NewReference(ts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range res.Tasks {
				ref.R[tr.Priority] = tr.WCRT
			}
			for _, tr := range res.Tasks {
				ex, err := Explain(ts, cfg, tr.Priority)
				if err != nil {
					t.Fatalf("set %d %+v prio %d: %v", si, cfg, tr.Priority, err)
				}
				bas := ex.OwnMD
				for _, sc := range ex.SameCore {
					bas += sc.AwareDemand + sc.CRPD
				}
				if ex.BAS != bas {
					t.Errorf("set %d %+v τ%d: BAS %d != same-core decomposition %d",
						si, cfg, tr.Priority, ex.BAS, bas)
				}
				bat := ex.BAS + ex.SlotWait + ex.Blocking
				for _, rc := range ex.Remote {
					bat += rc.Accesses
				}
				if ex.BAT != bat {
					t.Errorf("set %d %+v τ%d: BAT %d != decomposition %d",
						si, cfg, tr.Priority, ex.BAT, bat)
				}
				if want := ref.BAT(tr.Priority, ex.WCRT); ex.BAT != want {
					t.Errorf("set %d %+v τ%d: BAT %d != oracle BAT(%d) = %d",
						si, cfg, tr.Priority, ex.BAT, ex.WCRT, want)
				}
				if cfg.Arbiter != TDMA && ex.SlotWait != 0 {
					t.Errorf("set %d %+v τ%d: SlotWait %d outside TDMA",
						si, cfg, tr.Priority, ex.SlotWait)
				}
				if tr.Verified && tr.Schedulable && ex.PD+ex.CorePreemption+ex.BusTime > ex.WCRT {
					t.Errorf("set %d %+v τ%d: PD %d + preemption %d + bus time %d exceed WCRT %d",
						si, cfg, tr.Priority, ex.PD, ex.CorePreemption, ex.BusTime, ex.WCRT)
				}
			}
		}
	}
}

func TestExplainUnknownPriority(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	if _, err := Explain(ts, Config{Arbiter: RR}, 42); err == nil {
		t.Fatal("unknown priority accepted")
	}
}

func TestExplainRender(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	ex, err := Explain(ts, Config{Arbiter: RR, Persistence: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := ex.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := b.String()
	for _, want := range []string{"task tau2", "same-core bus demand", "tau1", "remote core 1", "BAT total accesses"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestExplainPersistenceReducesAwareDemand(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	base, err := Explain(ts, Config{Arbiter: RR}, 1)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Explain(ts, Config{Arbiter: RR, Persistence: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if aware.SameCore[0].AwareDemand >= base.SameCore[0].AwareDemand {
		t.Errorf("persistence did not reduce τ1's demand: %d vs %d",
			aware.SameCore[0].AwareDemand, base.SameCore[0].AwareDemand)
	}
	if aware.BAT >= base.BAT {
		t.Errorf("persistence did not reduce BAT: %d vs %d", aware.BAT, base.BAT)
	}
}

// explainSets are the task sets of the decomposition tests: the Fig. 1
// example, with regulation parameters so the Regulated arbiter applies
// to it, plus three generated two-core sets.
func explainSets(t *testing.T) []*taskmodel.TaskSet {
	t.Helper()
	fig1 := fixtures.Fig1TaskSet()
	fig1.Platform.RegBudget, fig1.Platform.RegPeriod = 2, 40
	return append([]*taskmodel.TaskSet{fig1}, randomTaskSets(t, 3, 0.4)...)
}

// explainConfigs crosses every arbiter with persistence off and each
// CPRO approach.
func explainConfigs() []Config {
	var cfgs []Config
	for _, arb := range Arbiters() {
		cfgs = append(cfgs, Config{Arbiter: arb})
		for _, cpro := range []persistence.CPROApproach{
			persistence.Union, persistence.MultisetUnion,
			persistence.FullReload, persistence.None,
		} {
			cfgs = append(cfgs, Config{Arbiter: arb, Persistence: true, CPRO: cpro})
		}
	}
	return cfgs
}

// explainGoldenEntry pins one Explain output.
type explainGoldenEntry struct {
	Set    int          `json:"set"`
	Config Config       `json:"config"`
	Prio   int          `json:"prio"`
	Ex     *Explanation `json:"ex"`
}

func explainGoldenPath() string {
	return filepath.Join("testdata", "explain_golden.json")
}

// explainGoldenEntries explains every task of explainSets under every
// explainConfigs configuration, in golden-file order.
func explainGoldenEntries(t *testing.T) []explainGoldenEntry {
	t.Helper()
	var got []explainGoldenEntry
	for si, ts := range explainSets(t) {
		for _, cfg := range explainConfigs() {
			for _, task := range ts.Tasks {
				ex, err := Explain(ts, cfg, task.Priority)
				if err != nil {
					t.Fatalf("set %d %+v prio %d: %v", si, cfg, task.Priority, err)
				}
				got = append(got, explainGoldenEntry{Set: si, Config: cfg, Prio: task.Priority, Ex: ex})
			}
		}
	}
	return got
}

// TestExplainGolden pins Explain field for field on every task of
// explainSets under every explainConfigs configuration. The fixed-point
// trace fields are not part of the golden file; TestExplainTrace checks
// them. Regenerate deliberately with:
// go test ./internal/core -run TestExplainGolden -update
func TestExplainGolden(t *testing.T) {
	got := explainGoldenEntries(t)
	if *updateGolden {
		var b bytes.Buffer
		b.WriteString("[\n")
		for i, e := range got {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			if i < len(got)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]\n")
		if err := os.WriteFile(explainGoldenPath(), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", explainGoldenPath())
		return
	}
	data, err := os.ReadFile(explainGoldenPath())
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []explainGoldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d entries, Explain produced %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Set != g.Set || w.Config != g.Config || w.Prio != g.Prio {
			t.Fatalf("entry %d: golden is set %d %+v prio %d, got set %d %+v prio %d",
				i, w.Set, w.Config, w.Prio, g.Set, g.Config, g.Prio)
		}
		ex := *g.Ex
		ex.Iterations, ex.Jumps, ex.Trace = 0, 0, nil
		if !reflect.DeepEqual(w.Ex, &ex) {
			t.Errorf("set %d %+v prio %d:\n got %+v\nwant %+v", g.Set, g.Config, g.Prio, *g.Ex, *w.Ex)
		}
	}
}

// TestExplainTrace checks the replayed fixed point on every golden
// entry: a verified task's trace ends at its reported WCRT (true of
// every verified task here; Explain documents where it need not be),
// the trace holds every iterate unless truncated, every dominant term
// uses the Explanation vocabulary, and Render labels abort-time
// replays. The Perfect bus-overload gate runs no fixed point and must
// leave the trace empty.
func TestExplainTrace(t *testing.T) {
	known := map[string]bool{"CorePreemption": true, "BAS": true, "SlotWait": true, "Blocking": true}
	sets := explainSets(t)
	for _, e := range explainGoldenEntries(t) {
		ex, key := e.Ex, fmt.Sprintf("set %d %+v", e.Set, e.Config)
		res, err := Analyze(sets[e.Set], e.Config, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.OuterIterations == 0 {
			if ex.Iterations != 0 || ex.Jumps != 0 || len(ex.Trace) != 0 {
				t.Errorf("%s prio %d: trace %d/%d/%v without a fixed point", key, e.Prio, ex.Iterations, ex.Jumps, ex.Trace)
			}
			continue
		}
		var tr TaskResult
		for _, r := range res.Tasks {
			if r.Priority == e.Prio {
				tr = r
			}
		}
		if ex.Iterations == 0 || int64(len(ex.Trace)) != min(ex.Iterations, maxTraceSteps) {
			t.Errorf("%s prio %d: %d iterations, %d traced", key, e.Prio, ex.Iterations, len(ex.Trace))
			continue
		}
		if ex.Jumps != 0 && ex.Jumps != 1 {
			t.Errorf("%s prio %d: %d breakpoint jumps", key, e.Prio, ex.Jumps)
		}
		if last := ex.Trace[len(ex.Trace)-1].R; tr.Verified && last != tr.WCRT {
			t.Errorf("%s prio %d: trace ends at %d, WCRT %d", key, e.Prio, last, tr.WCRT)
		}
		for _, st := range ex.Trace {
			if !known[st.Dominant] && !strings.HasPrefix(st.Dominant, "Remote[") {
				t.Errorf("%s prio %d: unknown dominant term %q", key, e.Prio, st.Dominant)
			}
		}
		var b strings.Builder
		if err := ex.Render(&b); err != nil {
			t.Fatal(err)
		}
		if replay := strings.Contains(b.String(), "replayed at the abort-time estimates"); replay == ex.Schedulable {
			t.Errorf("%s prio %d: schedulable %v but replay label %v:\n%s", key, e.Prio, ex.Schedulable, replay, b.String())
		}
	}
}
