package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSessionDisabledIsNoOp(t *testing.T) {
	s, err := StartSession(SessionOptions{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Observer() != nil {
		t.Error("disabled session has an observer")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestSessionFullLifecycle(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	s, err := StartSession(SessionOptions{
		Tool: "test", TracePath: trace, Metrics: true, Out: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := s.Observer()
	if obs == nil || obs.Metrics == nil || obs.Trace == nil {
		t.Fatalf("observer sinks missing: %+v", obs)
	}
	obs.Add(CtrRuns, 2)
	obs.Span("work", "test").End()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	events := decodeTrace(t, data)
	found := false
	for _, ev := range events {
		if ev["name"] == "telemetry" {
			args := ev["args"].(map[string]any)
			counters := args["counters"].(map[string]any)
			if counters["analyzer.runs"].(float64) != 2 {
				t.Errorf("embedded counters = %v", counters)
			}
			found = true
		}
	}
	if !found {
		t.Error("trace missing telemetry snapshot event")
	}
	for _, want := range []string{"analyzer.runs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("session output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSessionObserverMetricsOnlyWithTrace(t *testing.T) {
	// TracePath implies metrics so the exported trace can embed the
	// counter snapshot even without -metrics.
	s, err := StartSession(SessionOptions{Tool: "t", TracePath: filepath.Join(t.TempDir(), "x.json"), Out: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Observer() == nil || s.Observer().Metrics == nil {
		t.Fatal("trace-only session should still collect metrics")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Profile lifecycle tests, carried over from the former
// internal/profiling package the Session absorbed.

func TestStartProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestStartProfilesNoOp(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilesBadPath(t *testing.T) {
	if _, err := StartProfiles(filepath.Join(t.TempDir(), "no", "such", "dir", "x"), ""); err == nil {
		t.Error("unwritable cpuprofile path accepted")
	}
}
