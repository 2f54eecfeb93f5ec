package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// BatchRequest asks for one task set to be analyzed under a list of
// configurations (typically the six variants of a sweep point).
type BatchRequest struct {
	TS   *taskmodel.TaskSet
	Cfgs []Config
	// Label names the request in trace spans and progress callbacks
	// (e.g. "u=0.55/set 12"); empty falls back to the request index.
	Label string
}

// BatchOptions carries the cross-cutting knobs of AnalyzeBatchOpts.
type BatchOptions struct {
	// Workers sizes the pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Observer receives telemetry from every analysis. Each worker gets
	// its own trace track, so spans render as per-worker swimlanes.
	Observer *telemetry.Observer
	// Context, when non-nil, cancels the batch: workers finish the
	// request they are on and stop claiming new ones. The partial
	// results gathered so far are returned together with ctx.Err(), so
	// interrupted sweeps can still flush what they have.
	Context context.Context
	// OnResult, when non-nil, is called once per finished request with
	// the request index, its results (nil on analysis error) and the
	// label. Called from worker goroutines; must be safe for concurrent
	// use.
	OnResult func(i int, res []*Result, label string)
	// OnFailure, when non-nil, receives each request failure — an
	// analysis error, or a panic the reference retry did not rescue
	// (see AnalyzeIsolated) — together with the stack of the original
	// panic (nil for plain analysis errors). A failed request's result
	// slot stays nil and the batch itself still succeeds. Called from
	// worker goroutines; must be safe for concurrent use.
	OnFailure func(i int, label string, err error, stack []byte)
	// Memo, when non-nil, is a content-addressed store shared by every
	// request of the batch (and, if the caller retains it, across
	// batches): near-duplicate task sets recompute only the table
	// columns and curve backbones their differences invalidate (see
	// Options.Memo). The reference retry deliberately bypasses it —
	// the retry exists to sidestep engine state, cached columns and
	// curves included.
	Memo *MemoStore
}

// batchFaultHook, when non-nil, runs before every batch analysis
// attempt: attempt 0 is the regular engine, attempt 1 the reference
// retry after a panic. It exists solely so tests can inject panics
// into the isolation path; production code never sets it.
var batchFaultHook func(label string, attempt int)

// SetBatchFaultHook installs (or, with nil, removes) the test-only
// fault-injection hook. Not safe to call while a batch is running.
func SetBatchFaultHook(f func(label string, attempt int)) { batchFaultHook = f }

// panicError carries a recovered panic value and its stack as an
// error.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// analyzeGuarded runs one attempt of a request under recover.
func analyzeGuarded(req BatchRequest, attempt int, opts Options) (res []*Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &panicError{val: r, stack: debug.Stack()}
		}
	}()
	if hook := batchFaultHook; hook != nil {
		hook(req.Label, attempt)
	}
	if attempt == 0 {
		return analyzeAllObs(req.TS, req.Cfgs, opts.Observer, opts.Memo)
	}
	// Reference retry: the retained naive analyzer, config by config.
	out := make([]*Result, len(req.Cfgs))
	for i, cfg := range req.Cfgs {
		r, err := AnalyzeReference(req.TS, cfg)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// AnalyzeIsolated analyzes one request as AnalyzeAll does, but a panic
// cannot escape it: a panicking request is retried once on the naive
// reference analyzer, bypassing opts.Memo (the optimized engine and
// the reference are independent code paths, so an engine bug degrades
// one request, not the caller). Panics are counted on sweep.job_panics
// and terminal failures — analysis errors and failed retries — on
// sweep.job_failures. A failed retry's error names req.Label and wraps
// the original panic, whose stack AnalyzeBatchOpts hands to
// BatchOptions.OnFailure.
func AnalyzeIsolated(req BatchRequest, opts Options) ([]*Result, error) {
	res, err := analyzeGuarded(req, 0, opts)
	if pe, panicked := err.(*panicError); panicked {
		opts.Observer.Add(telemetry.CtrJobPanics, 1)
		if res, err = analyzeGuarded(req, 1, Options{}); err != nil {
			err = fmt.Errorf("%s: %w; reference retry: %v", req.Label, pe, err)
		}
	}
	if err != nil {
		opts.Observer.Add(telemetry.CtrJobFailures, 1)
		return nil, err
	}
	return res, nil
}

// AnalyzeBatchOpts fans the requests across a worker pool and returns,
// per request, the results in Cfgs order. Each request is processed by
// one worker through AnalyzeIsolated, so the configurations of a
// request share precomputed interference tables while distinct
// requests run in parallel, and a failing request is reported to
// OnFailure with a nil result slot instead of failing the batch. On
// cancellation the partial results are returned alongside the
// context's error.
func AnalyzeBatchOpts(reqs []BatchRequest, opts BatchOptions) ([][]*Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	out := make([][]*Result, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obs := opts.Observer.WithTrack(fmt.Sprintf("worker-%02d", w))
			for i := range idx {
				if ctx.Err() != nil {
					// Keep draining so the feeder never blocks, but do no
					// further work once the batch is canceled.
					continue
				}
				req := reqs[i]
				if req.Label == "" {
					req.Label = fmt.Sprintf("request %d", i)
				}
				var sp telemetry.Span
				if obs.Tracing() {
					sp = obs.Span(req.Label, "batch")
				}
				var err error
				out[i], err = AnalyzeIsolated(req, Options{Observer: obs, Memo: opts.Memo})
				if err != nil && opts.OnFailure != nil {
					var pe *panicError
					var stack []byte
					if errors.As(err, &pe) {
						stack = pe.stack
					}
					opts.OnFailure(i, req.Label, err, stack)
				}
				if obs.Tracing() {
					sp.End()
				}
				if opts.OnResult != nil {
					opts.OnResult(i, out[i], req.Label)
				}
			}
		}(w)
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out, ctx.Err()
}
