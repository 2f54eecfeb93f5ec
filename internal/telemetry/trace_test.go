package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// decodeTrace unmarshals an exported trace and returns its events.
func decodeTrace(t *testing.T, data []byte) []map[string]any {
	t.Helper()
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
	return doc.TraceEvents
}

func TestTraceRecorderExport(t *testing.T) {
	r := NewTraceRecorder()
	w := r.Track("worker-01")
	sp := w.Begin("analyze", "analyzer")
	time.Sleep(time.Millisecond)
	sp.EndArgs(map[string]any{"schedulable": true})
	w.Instant("abort", "analyzer", nil)
	r.Counters("analyzer", map[string]int64{"analyzer.runs": 1})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, map[string]any{"tool": "test"}); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())

	byPhase := map[string]int{}
	var span map[string]any
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		byPhase[ph]++
		if ph == "X" {
			span = ev
		}
	}
	// Two M thread_name events (main + worker), one X, one i (instant)
	// + one i (final telemetry), one C.
	if byPhase["M"] != 2 || byPhase["X"] != 1 || byPhase["C"] != 1 || byPhase["i"] != 2 {
		t.Errorf("phase counts = %v, want M:2 X:1 C:1 i:2", byPhase)
	}
	if span == nil {
		t.Fatal("no complete event found")
	}
	if dur, _ := span["dur"].(float64); dur < 500 { // slept 1ms = 1000us
		t.Errorf("span dur = %v us, want >= 500", span["dur"])
	}
	if ts, _ := span["ts"].(float64); ts < 0 {
		t.Errorf("span ts = %v, want >= 0", ts)
	}
	if name, _ := span["name"].(string); name != "analyze" {
		t.Errorf("span name = %q", name)
	}
	// The final telemetry instant must carry the args through.
	last := events[len(events)-1]
	if last["name"] != "telemetry" {
		t.Fatalf("last event = %v, want telemetry instant", last["name"])
	}
	args := last["args"].(map[string]any)
	if args["tool"] != "test" {
		t.Errorf("final args = %v", args)
	}
	if _, ok := args["dropped_events"]; !ok {
		t.Error("final args missing dropped_events")
	}
}

func TestTraceRecorderConcurrentSpans(t *testing.T) {
	r := NewTraceRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := r.Track("w")
			for i := 0; i < 100; i++ {
				tr.Begin("s", "c").End()
			}
		}(w)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())
	spans := 0
	for _, ev := range events {
		if ev["ph"] == "X" {
			spans++
		}
	}
	if spans != 400 {
		t.Errorf("spans = %d, want 400", spans)
	}
}

func TestNilTrackNoOps(t *testing.T) {
	var r *TraceRecorder
	tr := r.Track("x")
	if tr != nil {
		t.Fatal("nil recorder returned non-nil track")
	}
	tr.Begin("a", "b").End() // must not panic
	tr.Instant("i", "c", nil)
	r.Counters("c", nil)
	if r.Main() != nil {
		t.Error("nil recorder Main() != nil")
	}
}
