package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fixtures"
)

// writeFig1 dumps the paper's worked example to a temp file.
func writeFig1(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fig1.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtures.Fig1TaskSet().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPaperExample(t *testing.T) {
	var out, errOut bytes.Buffer
	code, err := run(context.Background(), []string{"-in", writeFig1(t), "-arbiter", "fp", "-persistence"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if !strings.Contains(out.String(), "SCHEDULABLE") {
		t.Errorf("output missing verdict:\n%s", out.String())
	}
}

// TestRunTraceEmitsValidChromeTrace is the acceptance check of the
// telemetry wiring: buscon -trace on the paper example must produce
// valid Chrome trace-event JSON whose embedded counter snapshot
// reconciles — abort reasons sum to the number of unschedulable runs.
func TestRunTraceEmitsValidChromeTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	// -compare runs both persistence settings: two analyzer runs in the
	// trace, both schedulable on the paper example.
	code, err := run(context.Background(), []string{
		"-in", writeFig1(t), "-arbiter", "fp", "-persistence", "-compare",
		"-trace", trace, "-metrics", "-convergence",
	}, &out, &errOut)
	if err != nil || code != 0 {
		t.Fatalf("run: code=%d err=%v (stderr: %s)", code, err, errOut.String())
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	var counters map[string]any
	spans := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ph, _ := ev["ph"].(string); ph == "X" {
			if cat, _ := ev["cat"].(string); cat != "" {
				spans[cat]++
			}
		}
		if ev["name"] == "telemetry" {
			args, _ := ev["args"].(map[string]any)
			counters, _ = args["counters"].(map[string]any)
		}
	}
	if counters == nil {
		t.Fatal("trace has no embedded counter snapshot")
	}
	cnt := func(name string) float64 {
		v, _ := counters[name].(float64)
		return v
	}
	if got := cnt("analyzer.runs"); got != 2 {
		t.Errorf("analyzer.runs = %v, want 2 (-compare runs both settings)", got)
	}
	// Both runs schedulable: no aborts, all runs completed.
	aborts := cnt("abort.deadline_miss") + cnt("abort.nonconvergence") + cnt("abort.bus_overload")
	unschedulable := cnt("analyzer.runs") - cnt("analyzer.runs_completed")
	if aborts != unschedulable {
		t.Errorf("abort counters (%v) do not reconcile with unschedulable runs (%v)", aborts, unschedulable)
	}
	if aborts != 0 {
		t.Errorf("aborts = %v on the schedulable paper example", aborts)
	}
	if spans["analyzer"] == 0 || spans["task"] == 0 {
		t.Errorf("trace missing analyzer/task spans: %v", spans)
	}
	for _, want := range []string{"analyzer.runs", "convergence traces", "tau1"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("telemetry output missing %q:\n%s", want, errOut.String())
		}
	}

	// Each task's traced fixed point ends at the WCRT column printed on
	// stdout (task, core, prio, T=D, WCRT, WCRT(other), verdict).
	wcrt := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 7 && f[6] == "OK" {
			wcrt[f[2]] = f[4]
		}
	}
	_, traces, _ := strings.Cut(errOut.String(), "convergence traces:\n")
	lines := strings.Split(traces, "\n")
	traced := 0
	for i, line := range lines {
		_, prio, ok := strings.Cut(line, " (prio ")
		if !ok || i+2 >= len(lines) {
			continue
		}
		prio = strings.TrimSuffix(prio, "):")
		steps := strings.Split(strings.TrimSpace(lines[i+2]), " -> ")
		if last := strings.Fields(steps[len(steps)-1])[0]; last != wcrt[prio] {
			t.Errorf("prio %s: trace ends at %s, WCRT column %q", prio, last, wcrt[prio])
		}
		traced++
	}
	if traced == 0 || traced != len(wcrt) {
		t.Errorf("%d traces for %d printed WCRTs:\n%s", traced, len(wcrt), errOut.String())
	}
}

// TestRunTraceReconcilesOnDeadlineMiss drives an unschedulable input
// through -trace and checks the abort accounting.
func TestRunTraceReconcilesOnDeadlineMiss(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	// Stress d_mem until the FP analysis must abort.
	ts.Platform.DMem = 50
	path := filepath.Join(t.TempDir(), "stressed.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	trace := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	code, err := run(context.Background(), []string{"-in", path, "-arbiter", "fp", "-trace", trace}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 for unschedulable", code)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "telemetry" {
			args := ev["args"].(map[string]any)
			counters := args["counters"].(map[string]any)
			miss, _ := counters["abort.deadline_miss"].(float64)
			if miss != 1 {
				t.Errorf("abort.deadline_miss = %v, want 1", miss)
			}
			return
		}
	}
	t.Fatal("no telemetry snapshot in trace")
}

// TestRunInterruptedExits130: a canceled context makes run stop before
// the analysis and report the interrupt as exit code 130, with the
// telemetry session still flushed (no error from the deferred close).
func TestRunInterruptedExits130(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut bytes.Buffer
	code, err := run(ctx, []string{"-in", writeFig1(t), "-arbiter", "fp"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 130 {
		t.Fatalf("exit code = %d, want 130", code)
	}
}
