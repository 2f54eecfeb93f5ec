package sim

import (
	"strings"
	"testing"

	"repro/internal/cacheset"
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/taskmodel"
)

func TestTraceEventsSoloTask(t *testing.T) {
	plat := soloPlatform(1, 5)
	bind := soloBinding(100)
	col := &CollectTracer{}
	_, err := Run(plat, []TaskBinding{bind}, Config{Policy: core.FP, Horizon: 150, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EventKind]int{}
	for _, e := range col.Events {
		counts[e.Kind]++
	}
	if counts[EvRelease] != 2 {
		t.Errorf("releases = %d, want 2", counts[EvRelease])
	}
	if counts[EvComplete] != 2 {
		t.Errorf("completions = %d, want 2", counts[EvComplete])
	}
	// Job 1 misses 4 blocks; job 2 hits everywhere.
	if counts[EvMissBus] != 4 || counts[EvBusComplete] != 4 {
		t.Errorf("miss/grant = %d/%d, want 4/4", counts[EvMissBus], counts[EvBusComplete])
	}
	if counts[EvPreempt] != 0 || counts[EvDeadlineMiss] != 0 {
		t.Errorf("unexpected preemptions/misses: %v", counts)
	}
	// First completion reports the cold response time.
	for _, e := range col.Events {
		if e.Kind == EvComplete {
			if e.Value != 32 {
				t.Errorf("first completion R = %d, want 32", e.Value)
			}
			break
		}
	}
	// Events are time-ordered.
	for i := 1; i < len(col.Events); i++ {
		if col.Events[i].Time < col.Events[i-1].Time {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestTracePreemptionEvent(t *testing.T) {
	n := 4
	plat := taskmodel.Platform{
		NumCores: 1,
		Cache:    taskmodel.CacheConfig{NumSets: n, BlockSizeBytes: 32},
		DMem:     2,
		SlotSize: 1,
	}
	hi := &taskmodel.Task{
		Name: "hi", Core: 0, Priority: 0,
		PD: 4, MD: 2, MDr: 0, Period: 50, Deadline: 50,
		ECB: cacheset.Of(n, 0, 1), UCB: cacheset.New(n), PCB: cacheset.Of(n, 0, 1),
	}
	lo := &taskmodel.Task{
		Name: "lo", Core: 0, Priority: 1,
		PD: 200, MD: 2, MDr: 0, Period: 400, Deadline: 400,
		ECB: cacheset.Of(n, 2, 3), UCB: cacheset.New(n), PCB: cacheset.Of(n, 2, 3),
	}
	col := &CollectTracer{}
	_, err := Run(plat, []TaskBinding{
		{hi, &program.Program{Name: "hi", Root: program.Straight(0, 2, 2)}},
		{lo, &program.Program{Name: "lo", Root: program.L(50, program.Straight(2, 2, 2))}},
	}, Config{Policy: core.FP, Horizon: 400, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	sawPreempt := false
	for _, e := range col.Events {
		if e.Kind == EvPreempt {
			sawPreempt = true
			if e.Task != "lo" || e.Value != 0 {
				t.Errorf("preempt event = %+v, want lo preempted by priority 0", e)
			}
		}
	}
	if !sawPreempt {
		t.Error("no preemption event despite overlapping releases")
	}
}

func TestWriterTracerFormat(t *testing.T) {
	var b strings.Builder
	tr := &WriterTracer{W: &b}
	tr.Event(Event{Time: 7, Kind: EvMissBus, Task: "x", Priority: 3, Core: 1, Value: 42})
	tr.Event(Event{Time: 9, Kind: EvComplete, Task: "x", Priority: 3, Core: 1, Value: 9})
	out := b.String()
	for _, want := range []string{"core1", "miss->bus", "x(p3)", "block=42", "R=9"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvRelease: "release", EvComplete: "complete", EvMissBus: "miss->bus",
		EvBusComplete: "bus-complete", EvL2Hit: "l2-hit", EvPreempt: "preempt",
		EvDeadlineMiss: "deadline-miss", EventKind(42): "EventKind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}
