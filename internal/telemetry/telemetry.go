// Package telemetry is the zero-overhead-when-disabled instrumentation
// layer of the analyzer and its front-ends. It provides two sinks
// sharing one lifecycle (Session):
//
//   - Metrics — atomic counters and log2 histograms for the hot path:
//     outer rounds, breakpoint snaps, cursor reseeds, curve-cache
//     hits/misses, abort reasons, pool memoization hits.
//   - TraceRecorder — span-based timing exported as Chrome trace-event
//     JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing,
//     with spans for per-task analysis, per-level curve construction
//     and per-request sweep work.
//
// The analyzer consumes both through Observer, an aggregate whose
// nil value (and any nil component) disables the corresponding
// instrumentation: internal/core guards every hot-path hook with a
// single nil check, so a nil Observer leaves the allocation-free inner
// loop untouched (pinned by core's TestResponseTimeZeroAlloc).
// Profiling (runtime/pprof CPU and heap profiles) is folded into the
// same Session so commands wire one lifecycle. The per-iterate view of
// one task's fixed point is core.Explain's trace, not a sink here.
package telemetry

// Observer aggregates the instrumentation sinks the analyzer reports
// into. Any field may be nil to disable that sink; a nil *Observer
// disables everything. Observers are cheap headers over shared sinks:
// WithTrack derives per-worker observers that share Metrics but write
// spans to their own trace track.
type Observer struct {
	Metrics *Metrics
	Trace   *TraceRecorder

	// track receives this observer's spans; nil falls back to the
	// recorder's main track.
	track *Track
}

// New returns an Observer collecting metrics only — the cheapest
// useful configuration, and the one tests assert counters through.
func New() *Observer { return &Observer{Metrics: NewMetrics()} }

// WithTrack returns a copy of o whose spans land on a new trace track
// with the given name. Without a trace recorder (or on a nil o) it
// returns o unchanged.
func (o *Observer) WithTrack(name string) *Observer {
	if o == nil || o.Trace == nil {
		return o
	}
	c := *o
	c.track = o.Trace.Track(name)
	return &c
}

// Add increments a counter. Nil-safe.
func (o *Observer) Add(c Counter, d int64) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Add(c, d)
}

// Observe records a histogram value. Nil-safe.
func (o *Observer) Observe(h HistID, v int64) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Observe(h, v)
}

// Span opens a span on the observer's track (or the recorder's main
// track). Nil-safe: without a trace recorder the returned Span is a
// no-op.
func (o *Observer) Span(name, cat string) Span {
	if o == nil || o.Trace == nil {
		return Span{}
	}
	if o.track != nil {
		return o.track.Begin(name, cat)
	}
	return o.Trace.Main().Begin(name, cat)
}

// Tracing reports whether spans are being recorded — call sites use it
// to skip building span names.
func (o *Observer) Tracing() bool { return o != nil && o.Trace != nil }
