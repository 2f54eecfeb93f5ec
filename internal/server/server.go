// Package server fronts the WCRT analysis engine (internal/core) with
// an HTTP JSON API — analysis as a service for toolchains that issue
// many, often near-duplicate, schedulability queries.
//
// The serving layer is deliberately pure: it never post-processes
// engine output. Each request is canonicalized to a stable key
// (core.CanonicalKey), answered from a bounded LRU request store when
// possible, coalesced with identical in-flight work otherwise
// (singleflight), and only then admitted to a bounded worker pool.
// Admission beyond the pool plus a configurable queue depth is shed
// with 429 and a Retry-After hint, so overload degrades by refusing
// work, not by collapsing. A request whose analysis panics is isolated
// by the engine's PR-4 recovery path (retry on the reference analyzer,
// then a per-request failure) — one poisoned request returns a 500 and
// the daemon keeps serving.
//
// Endpoints:
//
//	POST /v1/analyze        one task set under a list of configurations
//	POST /v1/analyze/delta  a recent request's key plus a list of edits
//	GET  /healthz           liveness (503 while draining)
//	GET  /metrics           counters, gauges and stage-latency
//	                        histograms as JSON; Prometheus 0.0.4 text
//	                        exposition with ?format=prometheus
//	GET  /debug/pprof/*     standard pprof handlers
//
// Every non-pprof request carries an ID (X-Request-ID passthrough or
// generated), is timed per lifecycle stage (decode, key, queue, cache,
// coalesce, proxy, analyze, marshal), and can emit one structured
// access-log line (Options.AccessLog). See DESIGN.md §11 for the API
// contract and §13 for the observability layer.
//
// With Options.Ring set the server is one node of a buscond fleet:
// requests whose canonical key another node owns are relayed there
// (shard-owner routing, internal/cluster), relayed results fill the
// local cache, and an unreachable owner degrades to local compute —
// see proxy.go and DESIGN.md §14.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// Options configures a Server. The zero value is serviceable: engine
// concurrency at GOMAXPROCS, a queue of twice that, a 1024-entry
// request store, no per-request timeout.
type Options struct {
	// Workers bounds concurrent engine invocations; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// QueueDepth is how many admitted requests may wait for a worker
	// before new arrivals are shed with 429. 0 selects 2×Workers; a
	// negative value disables waiting entirely (busy workers => shed).
	QueueDepth int
	// CacheEntries bounds the request store: the recently analyzed
	// requests whose results answer repeats from cache and whose inputs
	// make them /v1/analyze/delta bases. 0 selects 1024; a negative
	// value disables caching and deltas together (every base lookup
	// 404s).
	CacheEntries int
	// MemoEntries bounds the engine's content-addressed table memo
	// shared across requests (the delta fast path). 0 selects the
	// engine default (4096 columns); a negative value disables
	// memoization.
	MemoEntries int
	// RequestTimeout bounds how long a request may wait for a worker
	// slot. A running analysis is never preempted mid-fixed-point — its
	// runtime is bounded by Config.MaxOuterIterations — and its result
	// is returned (and cached) even if the deadline passed meanwhile.
	// 0 disables the deadline.
	RequestTimeout time.Duration
	// RetryAfter is the hint attached to 429 responses; 0 selects 1s.
	RetryAfter time.Duration
	// Observer receives the server.* counter family and is forwarded to
	// the engine. nil selects a fresh metrics-only observer so /metrics
	// always has data.
	Observer *telemetry.Observer
	// AccessLog receives one structured line per request (DESIGN.md
	// §13); nil disables access logging.
	AccessLog io.Writer
	// AccessLogFormat selects the access-log rendering: "json"
	// (default) or "text".
	AccessLogFormat string
	// Ring, when non-nil, joins this server to a buscond fleet with
	// shard-owner request routing (internal/cluster): requests whose
	// canonical key another node owns are proxied there, an unreachable
	// owner degrades to local compute, and successful relays fill the
	// local cache. nil serves everything locally (the single-node
	// deployment).
	Ring *cluster.Ring
}

// Server is the HTTP front end. Create with New, expose via Handler.
type Server struct {
	opts     Options
	obs      *telemetry.Observer
	store    *store
	flight   *flightGroup
	memo     *core.MemoStore // nil when MemoEntries < 0
	ring     *cluster.Ring   // nil outside a fleet
	sem      chan struct{}   // worker slots
	tickets  chan struct{}   // worker slots + waiting room; full => shed
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the instrument middleware
	access   *accessLogger
	inflight atomic.Int64
	draining atomic.Bool
}

// New builds a server over the in-process analysis engine.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case opts.QueueDepth < 0:
		opts.QueueDepth = 0
	case opts.QueueDepth == 0:
		opts.QueueDepth = 2 * opts.Workers
	}
	switch {
	case opts.CacheEntries < 0:
		opts.CacheEntries = 0
	case opts.CacheEntries == 0:
		opts.CacheEntries = 1024
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	var memo *core.MemoStore
	if opts.MemoEntries >= 0 {
		memo = core.NewMemoStore(opts.MemoEntries)
	}
	if opts.Observer == nil {
		opts.Observer = telemetry.New()
	}
	s := &Server{
		opts:    opts,
		obs:     opts.Observer,
		store:   newStore(opts.CacheEntries, opts.Observer),
		flight:  newFlightGroup(),
		memo:    memo,
		ring:    opts.Ring,
		sem:     make(chan struct{}, opts.Workers),
		tickets: make(chan struct{}, opts.Workers+opts.QueueDepth),
		access:  newAccessLogger(opts.AccessLog, opts.AccessLogFormat),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/analyze/delta", s.handleDelta)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	s.handler = s.instrument(mux)
	return s
}

// Handler returns the root handler — the instrument middleware
// (request IDs, stage timing, access log) around the mux; mount it on
// an http.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// queueDepth is how many admitted requests currently wait for a worker
// slot: tickets held beyond the occupied semaphore slots.
func (s *Server) queueDepth() int64 {
	d := int64(len(s.tickets)) - int64(len(s.sem))
	if d < 0 {
		d = 0
	}
	return d
}

// StartDrain flips /healthz to 503 so load balancers stop routing new
// traffic; in-flight requests are unaffected. The caller (cmd/buscond)
// follows up with http.Server.Shutdown, which waits for them.
func (s *Server) StartDrain() { s.draining.Store(true) }

// errShed marks requests refused by admission control.
var errShed = errors.New("server: worker pool and queue full")

// maxBodyBytes caps one request body (analyze or delta). It leaves
// room for the largest task sets the daemon serves — a 160-task set on
// an 8192-set cache whose UCB, ECB and PCB lists each name every set
// is about 19 MB — and bounds what one request makes the server buffer
// and parse; a larger body is answered 413 before anything parses it.
const maxBodyBytes = 64 << 20

var errBodyTooLarge = fmt.Errorf("request body exceeds the %d MiB limit", maxBodyBytes>>20)

// presizeBytes bounds the buffer readBody sizes from a declared
// Content-Length before any byte arrives: the length is the client's
// claim, so a longer body grows as it is read.
const presizeBytes = 1 << 20

// checkSetBytes bounds the bitset memory a wire task set asks for. Its
// UCB, ECB and PCB sets are ⌈NumSets/64⌉ words each, allocated when the
// task set is built, whatever the index lists hold, so a few hundred
// bytes naming a huge NumSets could ask for terabytes. A task set whose
// sets would outweigh the largest body the server reads is rejected
// before any is allocated. A non-positive NumSets is left to
// Platform.Validate.
func checkSetBytes(numSets, tasks int) error {
	if numSets <= 0 || tasks == 0 {
		return nil
	}
	words := uint64(numSets-1)/64 + 1
	if words > maxBodyBytes/(3*8*uint64(tasks)) {
		return fmt.Errorf("platform: cache NumSets = %d: the cache sets of %d tasks would exceed the %d MiB request limit",
			numSets, tasks, maxBodyBytes>>20)
	}
	return nil
}

// readBody reads a request body whole, capped at maxBodyBytes. On
// failure it has answered the request itself — 413 past the cap, 400
// for any other read error — and reports false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.ContentLength > maxBodyBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge, errBodyTooLarge)
		return nil, false
	}
	var buf bytes.Buffer
	buf.Grow(int(min(max(r.ContentLength, 0), presizeBytes)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge, errBodyTooLarge)
		} else {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		}
		return nil, false
	}
	return buf.Bytes(), true
}

// outcome is the result of one analysis request on its way to the
// wire.
type outcome struct {
	key       string
	raw       json.RawMessage
	cached    bool
	coalesced bool
}

// analyze resolves one request through cache → coalescing → admission
// → engine, charging each stage to the request's timer. ctx is the
// *waiting* context (the client's); the engine runs detached so a
// coalesced result is never poisoned by one client's disconnect. ri
// carries the per-request observability record and may be nil. key is
// core.CanonicalKey(ts, cfgs), computed once by the caller (which also
// routes on it).
func (s *Server) analyze(ctx context.Context, ri *reqInfo, key string, ts *taskmodel.TaskSet, cfgs []core.Config) (outcome, error) {
	st := ri.stageTimer()
	s.obs.Add(telemetry.CtrServerRequests, 1)
	t0 := st.Now()
	e, hit := s.store.get(key, ts, cfgs)
	st.AddSince(telemetry.StageCache, t0)
	if hit {
		s.obs.Add(telemetry.CtrServerCacheHits, 1)
		ri.addCacheHit()
		ri.setVerdict("cached")
		return outcome{key: key, raw: e.raw, cached: true}, nil
	}
	s.obs.Add(telemetry.CtrServerCacheMisses, 1)
	tw := st.Now()
	raw, shared, err := s.flight.do(ctx, key, func() (json.RawMessage, error) {
		return s.compute(ri, key, ts, cfgs)
	})
	if shared {
		// Only the follower's wait is a coalesce stage; the leader's time
		// is decomposed inside compute. A follower whose own context
		// expired is *not* coalesced — it got nothing — and accounts as a
		// timeout below instead.
		st.AddSince(telemetry.StageCoalesce, tw)
		s.obs.Add(telemetry.CtrServerCoalesced, 1)
		ri.addCoalesced()
	}
	if err != nil {
		var fte *followerTimeoutError
		if errors.As(err, &fte) {
			s.obs.Add(telemetry.CtrServerTimeouts, 1)
		}
		ri.setVerdict(verdictOf(err))
		return outcome{key: key}, err
	}
	if shared {
		ri.setVerdict("coalesced")
	} else {
		ri.setVerdict("fresh")
	}
	return outcome{key: key, raw: raw, coalesced: shared}, nil
}

// verdictOf maps an analysis error to its access-log verdict.
func verdictOf(err error) string {
	switch {
	case errors.Is(err, errShed):
		return "shed"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "timeout"
	default:
		return "error"
	}
}

// compute is the flight leader's path: admission, the engine, the
// cache fill. Stage charges land on the leader's request timer; the
// coalesced followers charge their wait as StageCoalesce instead.
func (s *Server) compute(ri *reqInfo, key string, ts *taskmodel.TaskSet, cfgs []core.Config) (json.RawMessage, error) {
	st := ri.stageTimer()
	// A previous leader may have filled the cache between our lookup
	// and winning flight leadership.
	t0 := st.Now()
	e, hit := s.store.get(key, ts, cfgs)
	st.AddSince(telemetry.StageCache, t0)
	if hit {
		s.obs.Add(telemetry.CtrServerCacheHits, 1)
		ri.addCacheHit()
		return e.raw, nil
	}

	// Admission: one ticket per request in the building (running or
	// waiting). No ticket => shed immediately.
	select {
	case s.tickets <- struct{}{}:
		defer func() { <-s.tickets }()
	default:
		s.obs.Add(telemetry.CtrServerShed, 1)
		return nil, errShed
	}

	// The slot wait is detached from any single client: the result is
	// shared with coalesced followers and the cache. RequestTimeout
	// still bounds it.
	ctx := context.Background()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	tq := st.Now()
	select {
	case s.sem <- struct{}{}:
		st.AddSince(telemetry.StageQueue, tq)
		defer func() { <-s.sem }()
	case <-ctx.Done():
		st.AddSince(telemetry.StageQueue, tq)
		s.obs.Add(telemetry.CtrServerTimeouts, 1)
		return nil, ctx.Err()
	}

	s.obs.Add(telemetry.CtrServerAnalyses, 1)
	// With access logging on, the engine writes through a per-request
	// child sink so memo hits attribute to this request while the
	// daemon-wide totals keep accumulating.
	engineObs := s.obs
	var child *telemetry.Metrics
	if s.access != nil && ri != nil && s.obs.Metrics != nil {
		child = telemetry.NewChildMetrics(s.obs.Metrics)
		co := *s.obs
		co.Metrics = child
		engineObs = &co
	}
	label := "req " + key[:8]
	engineObs = engineObs.WithTrack(label)
	ta := st.Now()
	sp := engineObs.Span("analyze "+key[:8], "server")
	res, err := core.AnalyzeIsolated(core.BatchRequest{TS: ts, Cfgs: cfgs, Label: label},
		core.Options{Observer: engineObs, Memo: s.memo})
	sp.End()
	st.AddSince(telemetry.StageAnalyze, ta)
	ri.addEngine(child)
	if err != nil {
		s.obs.Add(telemetry.CtrServerFailures, 1)
		return nil, err
	}
	tm := st.Now()
	raw := encodeResults(res)
	st.AddSince(telemetry.StageMarshal, tm)
	// The store fill is cache time, not marshal time — conflating the
	// two would hide a contended or oversized store inside the marshal
	// histogram. Only a request the engine resolved becomes a delta
	// base (including the edited sets deltas produce, so sweeps chain):
	// storing before admission would let a flood of shed requests churn
	// the store and evict bases that were actually analyzed.
	tc := st.Now()
	s.store.put(key, raw, ts, cfgs)
	st.AddSince(telemetry.StageCache, tc)
	return raw, nil
}

// statusOf maps an analysis error to its HTTP status.
func statusOf(err error) int {
	switch {
	case errors.Is(err, errShed):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeBody writes a finished JSON body: an envelope appended from
// cached bytes, or a peer's verbatim response.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		// Ceiling, clamped to >= 1: Retry-After is whole seconds, and a
		// sub-second hint must not round (or truncate) to "0", which
		// tells well-behaved clients to hammer immediately.
		secs := int64((s.opts.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	s.writeJSON(w, status, wireError{Error: err.Error()})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	ri := reqInfoFrom(r.Context())
	st := ri.stageTimer()
	td := st.Now()
	// The body is read whole (not streamed into the decoder) so a
	// non-owner node can relay it to the owning peer verbatim.
	body, ok := s.readBody(w, r)
	if !ok {
		st.AddSince(telemetry.StageDecode, td)
		return
	}
	req, err := decodeAnalyze(body)
	if err != nil {
		st.AddSince(telemetry.StageDecode, td)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	ts, cfgs, err := req.decode()
	st.AddSince(telemetry.StageDecode, td)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	tk := st.Now()
	key := core.CanonicalKey(ts, cfgs)
	st.AddSince(telemetry.StageKey, tk)
	degraded := false
	if s.routeRemotely(r, key) {
		if s.relay(w, r, ri, key, "/v1/analyze", body, ts, cfgs) {
			return
		}
		degraded = true
	}
	oc, err := s.analyze(r.Context(), ri, key, ts, cfgs)
	if err != nil {
		s.writeError(w, statusOf(err), err)
		return
	}
	if degraded {
		ri.setVerdict("degraded")
	}
	tm := ri.stageTimer().Now()
	writeAppended(w, func(b []byte) []byte { return appendEnvelope(b, oc, "") })
	ri.stageTimer().AddSince(telemetry.StageMarshal, tm)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// wireHistogram is one histogram's JSON /metrics rendering: the raw
// snapshot plus quantiles estimated from the log2 buckets.
type wireHistogram struct {
	telemetry.HistSnapshot
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// handleMetrics serves the telemetry inventory — counters, point-in-
// time gauges and stage histograms with estimated quantiles — as JSON
// by default, or in the Prometheus 0.0.4 text exposition with
// ?format=prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	gauges := []telemetry.PromGauge{
		{Name: "server.inflight", Help: "requests currently in flight", Value: s.inflight.Load()},
		{Name: "server.queue_depth", Help: "admitted requests waiting for a worker", Value: s.queueDepth()},
	}
	m := s.obs.Metrics
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", telemetry.ContentTypePrometheus)
		_ = m.WritePrometheus(w, gauges)
		return
	}
	gaugeMap := make(map[string]int64, len(gauges))
	for _, g := range gauges {
		gaugeMap[g.Name] = g.Value
	}
	hists := map[string]wireHistogram{}
	for name, hs := range m.Hists() {
		hists[name] = wireHistogram{
			HistSnapshot: hs,
			P50:          hs.Quantile(0.50),
			P95:          hs.Quantile(0.95),
			P99:          hs.Quantile(0.99),
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"counters":   m.Counters(),
		"gauges":     gaugeMap,
		"histograms": hists,
	})
}
