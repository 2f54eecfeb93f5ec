package telemetry

import (
	"sync/atomic"
	"time"
)

// Per-request stage timing. The serving layer (internal/server) splits
// one analysis request's lifecycle into a fixed set of stages; a
// StageTimer accumulates the wall clock each stage consumed and, on
// Finish, flushes the durations into the shared stage histograms (in
// microseconds) so /metrics can answer "where do requests spend their
// time" without any per-request state surviving the request.

// Stage is one segment of an analysis request's lifecycle. Every
// request that parses passes StageDecode and StageKey; after that it
// visits a subset of the stages depending on its outcome: a cache hit
// sees only StageCache, a coalesced follower StageCache+StageCoalesce,
// a flight leader everything but StageCoalesce.
type Stage int

const (
	// StageDecode is reading the request body, parsing it and
	// validating it into engine inputs (task set, configurations); for
	// a delta request it includes applying the edits to the base.
	StageDecode Stage = iota
	// StageKey is the canonical-key computation (core.CanonicalKey).
	StageKey
	// StageQueue is the wait for an engine worker slot after admission
	// (a ticket was available, the semaphore was not).
	StageQueue
	// StageCache is result-cache lookups and fills, including the
	// leader's post-leadership double-check.
	StageCache
	// StageCoalesce is a follower's wait for an identical in-flight
	// request's result.
	StageCoalesce
	// StageProxy is the round trip to a key's owning peer node
	// (internal/cluster shard-owner routing), including a failed
	// attempt that degraded to local compute.
	StageProxy
	// StageAnalyze is the engine invocation, content-addressed memo
	// lookups included.
	StageAnalyze
	// StageMarshal is result marshaling and the response write.
	StageMarshal

	// NumStages bounds the stage enum; StageTimer and the access log
	// size their arrays with it.
	NumStages
)

var stageNames = [NumStages]string{
	StageDecode:   "decode",
	StageKey:      "key",
	StageQueue:    "queue",
	StageCache:    "cache",
	StageCoalesce: "coalesce",
	StageProxy:    "proxy",
	StageAnalyze:  "analyze",
	StageMarshal:  "marshal",
}

func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return "stage(?)"
}

// Hist returns the shared histogram the stage's durations flush into.
func (s Stage) Hist() HistID {
	switch s {
	case StageDecode:
		return HistStageDecode
	case StageKey:
		return HistStageKey
	case StageQueue:
		return HistStageQueue
	case StageCache:
		return HistStageCache
	case StageCoalesce:
		return HistStageCoalesce
	case StageProxy:
		return HistStageProxy
	case StageAnalyze:
		return HistStageAnalyze
	case StageMarshal:
		return HistStageMarshal
	}
	return -1
}

// StageTimer accumulates one request's per-stage durations. The nil
// timer (returned by StartStages on an observer without metrics) is a
// no-op that never reads the clock, preserving the zero-overhead-when-
// disabled contract. Charging is safe for concurrent use (atomic
// adds), but Finish must happen once, after all charging is done.
type StageTimer struct {
	obs   *Observer
	start time.Time
	durs  [NumStages]atomic.Int64 // nanoseconds
}

// StartStages opens a stage timer whose total-request clock starts
// now. Nil-safe; returns nil when no metrics sink is attached.
func (o *Observer) StartStages() *StageTimer {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return &StageTimer{obs: o, start: time.Now()}
}

// Now reads the clock for a later AddSince, or returns the zero time
// on a nil timer so disabled instrumentation costs one branch.
func (t *StageTimer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// AddSince charges the time elapsed since t0 to the stage. Stages may
// be charged repeatedly (the cache stage runs once per lookup); the
// durations accumulate.
func (t *StageTimer) AddSince(s Stage, t0 time.Time) {
	if t == nil || s < 0 || s >= NumStages {
		return
	}
	t.durs[s].Add(int64(time.Since(t0)))
}

// Add charges an explicit duration to the stage.
func (t *StageTimer) Add(s Stage, d time.Duration) {
	if t == nil || s < 0 || s >= NumStages {
		return
	}
	t.durs[s].Add(int64(d))
}

// Finish flushes the accumulated stage durations into the shared
// histograms (microseconds; stages never visited are not observed, so
// each stage histogram's count equals the number of requests that
// actually passed through it) plus the whole-request histogram, and
// returns the recorded durations for the access log. Nil-safe: a nil
// timer returns the zero array.
func (t *StageTimer) Finish() [NumStages]time.Duration {
	var durs [NumStages]time.Duration
	if t == nil {
		return durs
	}
	for s := Stage(0); s < NumStages; s++ {
		durs[s] = time.Duration(t.durs[s].Load())
		if durs[s] > 0 {
			t.obs.Observe(s.Hist(), durs[s].Microseconds())
		}
	}
	t.obs.Observe(HistRequestTotal, time.Since(t.start).Microseconds())
	return durs
}
