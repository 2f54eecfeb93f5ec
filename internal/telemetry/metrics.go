package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync/atomic"
	"text/tabwriter"
)

// Counter identifies one analyzer-wide event count. Counters are
// updated with atomic adds, so one Metrics value can be shared by every
// worker of a batch run; the names (String) double as the keys of
// Snapshot and of the counter samples embedded in exported traces.
type Counter int

const (
	// CtrRuns counts Analyzer.Run invocations (one whole-task-set
	// outer fixed point).
	CtrRuns Counter = iota
	// CtrRunsCompleted counts Runs whose outer fixed point converged
	// for every task (Result.Complete).
	CtrRunsCompleted
	// CtrOuterRounds counts outer fixed-point rounds across all Runs.
	CtrOuterRounds
	// CtrTaskAnalyses counts ResponseTime invocations (per-task inner
	// fixed points, including re-analyses in later outer rounds).
	CtrTaskAnalyses
	// CtrInnerIterations counts iterates of the inner recurrence.
	CtrInnerIterations
	// CtrBreakpointJumps counts inner iterations terminated by the
	// breakpoint jump (iterate below every pending breakpoint).
	CtrBreakpointJumps
	// CtrBreakpointSnaps counts cursor re-evaluations during
	// fpAdvance — breakpoints actually crossed by an iterate.
	CtrBreakpointSnaps
	// CtrCursorRebuilds counts full cursor rebuilds in fpReset (cold
	// level, or seed below the cursors' resting iterate).
	CtrCursorRebuilds
	// CtrCursorResumes counts fpReset calls that reused the level's
	// resting cursors from a previous analysis.
	CtrCursorResumes
	// CtrCursorRemoteRefreshes counts remote cursors re-evaluated on a
	// resume because their carry-in offset (the remote estimate R_l)
	// changed since the level was last analyzed.
	CtrCursorRemoteRefreshes
	// CtrCurveBuilds counts genuine cold curve-backbone computations:
	// per-(level, core-column, depth) materializations that actually ran
	// the term-assembly loop — locally, or as the leader of a curve-memo
	// miss. Memo-served materializations are *not* builds; they show up
	// on the core.curve_memo_* family instead, so /metrics can tell
	// "curve memo working" from "curve cache warm within one analysis".
	CtrCurveBuilds
	// CtrCurveHits counts curve lookups served by a backbone already
	// materialized in the same Tables (warm within one analysis).
	CtrCurveHits
	// CtrAbortDeadlineMiss counts Runs aborted by a proven deadline
	// miss.
	CtrAbortDeadlineMiss
	// CtrAbortNonConvergence counts Runs aborted by the outer iteration
	// budget running out before global convergence.
	CtrAbortNonConvergence
	// CtrAbortBusOverload counts perfect-bus analyses rejected by the
	// bus-utilization gate before any fixed point was attempted.
	CtrAbortBusOverload
	// CtrPoolMemoHits counts benchmark-pool extractions served from the
	// per-geometry memo cache; CtrPoolMemoMisses counts cold extractions.
	CtrPoolMemoHits
	CtrPoolMemoMisses
	// Content-addressed table memo family (core.MemoStore): per-
	// (core-column, priority-cutoff) interference-table units shared
	// across analyses and requests. CtrMemoHits counts lookups served
	// by a published column, CtrMemoWaits lookups that joined an
	// in-flight computation of the same sub-key, CtrMemoMisses actual
	// column computations (the work the store exists to avoid), and
	// CtrMemoEvictions columns dropped by capacity pressure.
	CtrMemoHits
	CtrMemoWaits
	CtrMemoMisses
	CtrMemoEvictions
	// Curve-backbone memo family: whole materialized breakpoint-curve
	// backbones (curves.go termCurve slices) shared through the same
	// content-addressed store, keyed one level up from the table columns
	// (column sub-key chained with the per-task scalar digests). Same
	// accounting as the core.memo_* family: hits are served backbones,
	// waits joined an in-flight build, misses are actual backbone
	// computations, evictions are capacity drops of curve entries.
	CtrCurveMemoHits
	CtrCurveMemoWaits
	CtrCurveMemoMisses
	CtrCurveMemoEvictions
	// CtrJobPanics counts sweep jobs whose analysis (or generation)
	// panicked and was recovered by the isolation layer. A panicking
	// job is retried once on the naive reference analyzer; only the
	// initial panic is counted here.
	CtrJobPanics
	// CtrJobFailures counts sweep jobs that failed for good — the
	// reference retry panicked or errored too — and were recorded as
	// per-job failures instead of aborting the sweep.
	CtrJobFailures

	// Server counter family (internal/server): admission, the canonical
	// result cache and in-flight request coalescing of the analysis
	// daemon. CtrServerRequests counts analysis requests (batch items
	// count individually); every request resolves to exactly one of
	// cache hit, coalesced wait, executed analysis, shed, timeout or
	// failure.
	CtrServerRequests
	// CtrServerCacheHits counts requests served from the result cache;
	// CtrServerCacheMisses counts requests that had to go through the
	// coalescing map.
	CtrServerCacheHits
	CtrServerCacheMisses
	// CtrServerCacheEvictions counts cache entries dropped by LRU
	// capacity pressure; CtrServerCacheExpiries counts entries dropped
	// because their TTL elapsed (discovered on get or swept during
	// put). The two are distinct signals: evictions indicate the cache
	// is too small, expiries only that results aged out.
	CtrServerCacheEvictions
	CtrServerCacheExpiries
	// CtrServerCoalesced counts requests that joined an identical
	// in-flight computation instead of starting their own.
	CtrServerCoalesced
	// CtrServerAnalyses counts engine invocations — the work the cache
	// and coalescing exist to avoid. Under duplicate load this stays
	// strictly below CtrServerRequests.
	CtrServerAnalyses
	// CtrServerShed counts requests rejected by queue-depth load
	// shedding (HTTP 429).
	CtrServerShed
	// CtrServerTimeouts counts requests that hit the per-request
	// deadline while queued or canceled before the engine ran.
	CtrServerTimeouts
	// CtrServerFailures counts requests whose analysis failed
	// terminally even after the isolation layer's reference retry.
	CtrServerFailures
	// Delta endpoint family (POST /v1/analyze/delta): incremental
	// analysis requests phrased as a base canonical key plus edits.
	// CtrServerDeltaRequests counts delta requests,
	// CtrServerDeltaBaseMisses those whose base key was not in the
	// base registry (the client must re-POST the full request), and
	// CtrServerDeltaEdits the individual edits applied.
	CtrServerDeltaRequests
	CtrServerDeltaBaseMisses
	CtrServerDeltaEdits
	// Cluster peer family (internal/cluster routing in the server):
	// shard-owner request forwarding between buscond nodes.
	// CtrServerPeerProxied counts requests this node relayed to their
	// owning peer (the edge does not also count them as
	// server.requests — fleet-summed server.requests stays equal to
	// client requests); CtrServerPeerHits those proxied requests whose
	// relayed envelope filled the local cache (peer cache fill);
	// CtrServerPeerErrors proxy transport failures or non-2xx peer
	// responses; CtrServerPeerDegraded requests answered by local
	// compute because their owner was unreachable (node-loss
	// degradation — latency cost, not availability).
	CtrServerPeerProxied
	CtrServerPeerHits
	CtrServerPeerErrors
	CtrServerPeerDegraded

	numCounters
)

var counterNames = [numCounters]string{
	CtrRuns:                  "analyzer.runs",
	CtrRunsCompleted:         "analyzer.runs_completed",
	CtrOuterRounds:           "analyzer.outer_rounds",
	CtrTaskAnalyses:          "analyzer.task_analyses",
	CtrInnerIterations:       "fp.inner_iterations",
	CtrBreakpointJumps:       "fp.breakpoint_jumps",
	CtrBreakpointSnaps:       "fp.breakpoint_snaps",
	CtrCursorRebuilds:        "fp.cursor_rebuilds",
	CtrCursorResumes:         "fp.cursor_resumes",
	CtrCursorRemoteRefreshes: "fp.cursor_remote_refreshes",
	CtrCurveBuilds:           "curves.builds",
	CtrCurveHits:             "curves.hits",
	CtrAbortDeadlineMiss:     "abort.deadline_miss",
	CtrAbortNonConvergence:   "abort.nonconvergence",
	CtrAbortBusOverload:      "abort.bus_overload",
	CtrPoolMemoHits:          "pool.memo_hits",
	CtrPoolMemoMisses:        "pool.memo_misses",
	CtrMemoHits:              "core.memo_hits",
	CtrMemoWaits:             "core.memo_waits",
	CtrMemoMisses:            "core.memo_misses",
	CtrMemoEvictions:         "core.memo_evictions",
	CtrCurveMemoHits:         "core.curve_memo_hits",
	CtrCurveMemoWaits:        "core.curve_memo_waits",
	CtrCurveMemoMisses:       "core.curve_memo_misses",
	CtrCurveMemoEvictions:    "core.curve_memo_evictions",
	CtrJobPanics:             "sweep.job_panics",
	CtrJobFailures:           "sweep.job_failures",
	CtrServerRequests:        "server.requests",
	CtrServerCacheHits:       "server.cache_hits",
	CtrServerCacheMisses:     "server.cache_misses",
	CtrServerCacheEvictions:  "server.cache_evictions",
	CtrServerCacheExpiries:   "server.cache_expiries",
	CtrServerCoalesced:       "server.coalesced",
	CtrServerAnalyses:        "server.analyses",
	CtrServerShed:            "server.shed",
	CtrServerTimeouts:        "server.timeouts",
	CtrServerFailures:        "server.failures",
	CtrServerDeltaRequests:   "server.delta_requests",
	CtrServerDeltaBaseMisses: "server.delta_base_misses",
	CtrServerDeltaEdits:      "server.delta_edits",
	CtrServerPeerProxied:     "server.peer_proxied",
	CtrServerPeerHits:        "server.peer_hits",
	CtrServerPeerErrors:      "server.peer_errors",
	CtrServerPeerDegraded:    "server.peer_degraded",
}

func (c Counter) String() string {
	if c >= 0 && c < numCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// HistID identifies one of the fixed value distributions Metrics
// tracks alongside the counters.
type HistID int

const (
	// HistOuterRounds is the distribution of outer fixed-point rounds
	// per Run.
	HistOuterRounds HistID = iota
	// HistInnerIters is the distribution of inner iterates per
	// ResponseTime call.
	HistInnerIters
	// Per-request stage-latency family (internal/server): microseconds
	// one analysis request spent in each lifecycle stage, recorded by
	// StageTimer (stages.go). Quantiles (p50/p95/p99) are estimated
	// from the log2 buckets via HistSnapshot.Quantile; the taxonomy is
	// documented in DESIGN.md §13.
	HistStageDecode
	HistStageKey
	HistStageQueue
	HistStageCache
	HistStageCoalesce
	HistStageProxy
	HistStageAnalyze
	HistStageMarshal
	// HistRequestTotal is the whole-request wall clock in microseconds
	// — cache hits, coalesced waits and shed requests included, so its
	// count matches server.requests under steady load.
	HistRequestTotal

	numHists
)

var histNames = [numHists]string{
	HistOuterRounds:   "analyzer.outer_rounds_per_run",
	HistInnerIters:    "fp.iterations_per_analysis",
	HistStageDecode:   "server.stage_decode_us",
	HistStageKey:      "server.stage_key_us",
	HistStageQueue:    "server.stage_queue_us",
	HistStageCache:    "server.stage_cache_us",
	HistStageCoalesce: "server.stage_coalesce_us",
	HistStageProxy:    "server.stage_proxy_us",
	HistStageAnalyze:  "server.stage_analyze_us",
	HistStageMarshal:  "server.stage_marshal_us",
	HistRequestTotal:  "server.request_us",
}

func (h HistID) String() string {
	if h >= 0 && h < numHists {
		return histNames[h]
	}
	return fmt.Sprintf("hist(%d)", int(h))
}

// histBuckets bounds the log2 bucket range; bucket k collects values v
// with bits.Len64(v) == k, i.e. v in [2^(k-1), 2^k).
const histBuckets = 32

// Histogram is a lock-free log2-bucketed distribution of non-negative
// integer observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	// Buckets[0] counts zeros (including clamped negatives); Buckets[k]
	// for k >= 1 counts observations in [2^(k-1), 2^k). The top bucket
	// additionally absorbs values at or above 2^(histBuckets-1), so no
	// observation is ever dropped. Trailing empty buckets are trimmed.
	Buckets []int64 `json:"buckets"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	last := -1
	var buckets [histBuckets]int64
	for i := range buckets {
		buckets[i] = h.buckets[i].Load()
		if buckets[i] != 0 {
			last = i
		}
	}
	s.Buckets = append([]int64(nil), buckets[:last+1]...)
	return s
}

// Metrics is the shared counter/histogram sink of one observed run.
// All methods are safe for concurrent use.
type Metrics struct {
	counters [numCounters]atomic.Int64
	hists    [numHists]Histogram
	// parent receives a copy of every write (NewChildMetrics) so a
	// short-lived sink can attribute per-request work without the
	// long-lived one missing anything.
	parent *Metrics
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics { return &Metrics{} }

// NewChildMetrics returns a sink whose writes also land on parent.
// The server uses one child per engine invocation to attribute memo
// hits to individual requests while the daemon-wide counters keep
// accumulating; the cost is one extra atomic op per write.
func NewChildMetrics(parent *Metrics) *Metrics { return &Metrics{parent: parent} }

// Add increments counter c by d.
func (m *Metrics) Add(c Counter, d int64) {
	if c >= 0 && c < numCounters {
		for s := m; s != nil; s = s.parent {
			s.counters[c].Add(d)
		}
	}
}

// Get returns the current value of counter c.
func (m *Metrics) Get(c Counter) int64 {
	if c >= 0 && c < numCounters {
		return m.counters[c].Load()
	}
	return 0
}

// Observe records v into histogram h.
func (m *Metrics) Observe(h HistID, v int64) {
	if h >= 0 && h < numHists {
		for s := m; s != nil; s = s.parent {
			s.hists[h].Observe(v)
		}
	}
}

// Hist returns histogram h for inspection.
func (m *Metrics) Hist(h HistID) *Histogram {
	if h >= 0 && h < numHists {
		return &m.hists[h]
	}
	return nil
}

// Counters returns the nonzero counters keyed by name — the payload
// embedded into exported traces and the metrics summary.
func (m *Metrics) Counters() map[string]int64 {
	out := make(map[string]int64, numCounters)
	for c := Counter(0); c < numCounters; c++ {
		if v := m.counters[c].Load(); v != 0 {
			out[c.String()] = v
		}
	}
	return out
}

// Hists returns snapshots of the non-empty histograms keyed by name —
// the payload of the JSON /metrics histogram section.
func (m *Metrics) Hists() map[string]HistSnapshot {
	out := make(map[string]HistSnapshot, numHists)
	for h := HistID(0); h < numHists; h++ {
		if s := m.hists[h].Snapshot(); s.Count != 0 {
			out[h.String()] = s
		}
	}
	return out
}

// WriteSummary renders the nonzero counters and non-empty histograms
// as an aligned, name-sorted table.
func (m *Metrics) WriteSummary(w io.Writer) error {
	counters := m.Counters()
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "counter\tvalue")
	for _, n := range names {
		fmt.Fprintf(tw, "%s\t%d\n", n, counters[n])
	}
	for h := HistID(0); h < numHists; h++ {
		s := m.hists[h].Snapshot()
		if s.Count == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\tcount=%d mean=%.2f max=%d\n", h, s.Count, s.Mean, s.Max)
	}
	return tw.Flush()
}
