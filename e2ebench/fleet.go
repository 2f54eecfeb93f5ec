package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// fleet is a set of in-process buscond nodes, each a server.Server on
// its own loopback listener, joined by a cluster.Ring when there is
// more than one. Every node's handler is wrapped in the benchmark's
// own middleware, which times the handler and, while a reqLog is
// attached, records spans and per-request durations.
type fleet struct {
	nodes []*node
	ring  *cluster.Ring // the benchmark's view, for Owner
	log   atomic.Pointer[reqLog]
}

type node struct {
	idx    int
	url    string
	obs    *telemetry.Observer
	hs     *http.Server
	served chan error
}

// startFleet starts n nodes. With accessLog set, every node writes its
// structured access log into the fleet's reqLog (per-request server
// stage durations, for the stage reconciliation).
func startFleet(n int, accessLog bool) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	for i := range lns {
		nd := &node{idx: i, url: urls[i], obs: telemetry.New(), served: make(chan error, 1)}
		opts := server.Options{Observer: nd.obs}
		if n > 1 {
			ring, err := cluster.NewRing(urls[i], urls, 0)
			if err != nil {
				return nil, err
			}
			opts.Ring = ring
			if i == 0 {
				f.ring = ring
			}
		}
		if accessLog {
			opts.AccessLog = &accessSink{f: f, node: i}
		}
		srv := server.New(opts)
		nd.hs = &http.Server{Handler: f.middleware(nd, srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
		f.nodes = append(f.nodes, nd)
		go func(ln net.Listener) { nd.served <- nd.hs.Serve(ln) }(lns[i])
	}
	return f, nil
}

// close shuts every node down and waits for its Serve loop to return.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, nd := range f.nodes {
		_ = nd.hs.Shutdown(ctx) // a node still busy at the deadline is closed below
		_ = nd.hs.Close()
		<-nd.served
	}
}

// owner returns the index of the node owning a canonical key.
func (f *fleet) owner(key string) int {
	if f.ring == nil {
		return 0
	}
	u := f.ring.OwnerURL(key)
	for _, nd := range f.nodes {
		if nd.url == u {
			return nd.idx
		}
	}
	return -1
}

type ctxKeyReqID struct{}

// middleware wraps one node's handler. Requests carry the client's
// X-Request-ID; a forwarded hop carries it too (idTransport), so both
// handler spans of a proxied request link to their parents.
func (f *fleet) middleware(nd *node, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rl := f.log.Load()
		id := r.Header.Get("X-Request-ID")
		if rl == nil || id == "" {
			h.ServeHTTP(w, r)
			return
		}
		fwd := cluster.Forwarded(r)
		layer, parent := "node.handler", rl.spanOf(roleClient, id)
		if fwd {
			layer, parent = "node.forwarded", rl.spanOf(roleEdge, id)
		}
		sp := rl.tr.begin(rl.tracks[nd.idx], layer, r.URL.Path, parent)
		sp.args = map[string]any{"id": id, "node": nd.idx}
		if !fwd {
			rl.setSpan(roleEdge, id, sp.id)
		}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKeyReqID{}, id)))
		rl.setHandler(nd.idx, id, sp.end())
	})
}

// idTransport copies the request ID the middleware put in a request's
// context onto outgoing requests, so a peer's relay (cluster.Ring.Proxy
// uses the default transport and the handler's context) reaches the
// owner's middleware with the client's ID.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(ctxKeyReqID{}).(string); ok && req.Header.Get("X-Request-ID") == "" {
		req = req.Clone(req.Context())
		req.Header.Set("X-Request-ID", id)
	}
	return t.base.RoundTrip(req)
}

var installIDTransport sync.Once

// reqLog collects, per request ID, the client span, the handler
// durations measured by the middleware on each node, and the stage
// durations each node's access log reported.
type reqLog struct {
	tr     *tracer
	tracks []*telemetry.Track // per node

	mu       sync.Mutex
	spans    map[spanKey]int // span index of a request's client span or edge handler span
	handlers map[nodeID]time.Duration
	stages   map[nodeID]map[string]int64 // µs per stage
}

// spanKey names a span by role (roleClient or roleEdge) and request ID.
type spanKey struct {
	role int
	id   string
}

const (
	roleClient = -1
	roleEdge   = -2
)

type nodeID struct {
	node int
	id   string
}

func newReqLog(tr *tracer, nodes int) *reqLog {
	rl := &reqLog{
		tr: tr, spans: map[spanKey]int{},
		handlers: map[nodeID]time.Duration{}, stages: map[nodeID]map[string]int64{},
	}
	for i := 0; i < nodes; i++ {
		rl.tracks = append(rl.tracks, tr.track(fmt.Sprintf("node %d", i)))
	}
	return rl
}

// tracer returns the log's tracer; nil on a nil log.
func (rl *reqLog) tracer() *tracer {
	if rl == nil {
		return nil
	}
	return rl.tr
}

func (rl *reqLog) setSpan(role int, id string, span int) {
	rl.mu.Lock()
	rl.spans[spanKey{role, id}] = span
	rl.mu.Unlock()
}

func (rl *reqLog) spanOf(role int, id string) int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if s, ok := rl.spans[spanKey{role, id}]; ok {
		return s
	}
	return -1
}

func (rl *reqLog) setHandler(node int, id string, d time.Duration) {
	rl.mu.Lock()
	rl.handlers[nodeID{node, id}] = d
	rl.mu.Unlock()
}

// accessSink receives one node's JSON access-log lines.
type accessSink struct {
	f    *fleet
	node int
}

func (a *accessSink) Write(p []byte) (int, error) {
	rl := a.f.log.Load()
	if rl == nil {
		return len(p), nil
	}
	for _, line := range bytes.Split(bytes.TrimSpace(p), []byte("\n")) {
		var e struct {
			ID     string           `json:"id"`
			Stages map[string]int64 `json:"stages"`
		}
		if json.Unmarshal(line, &e) != nil || e.ID == "" {
			continue
		}
		rl.mu.Lock()
		rl.stages[nodeID{a.node, e.ID}] = e.Stages
		rl.mu.Unlock()
	}
	return len(p), nil
}

// metricsDoc is the part of a node's JSON /metrics the benchmark reads.
type metricsDoc struct {
	Counters   map[string]int64                  `json:"counters"`
	Histograms map[string]telemetry.HistSnapshot `json:"histograms"`
}

// scrape sums GET /metrics over every node.
func (f *fleet) scrape() (metricsDoc, error) {
	sum := metricsDoc{Counters: map[string]int64{}, Histograms: map[string]telemetry.HistSnapshot{}}
	c := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	for _, nd := range f.nodes {
		resp, err := c.Get(nd.url + "/metrics")
		if err != nil {
			return sum, err
		}
		var doc metricsDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("%s/metrics: %w", nd.url, err)
		}
		for k, v := range doc.Counters {
			sum.Counters[k] += v
		}
		for k, h := range doc.Histograms {
			sum.Histograms[k] = addSnap(sum.Histograms[k], h)
		}
	}
	return sum, nil
}

// sub returns the counter and histogram deltas from before to d.
func (d metricsDoc) sub(before metricsDoc) metricsDoc {
	out := metricsDoc{Counters: map[string]int64{}, Histograms: map[string]telemetry.HistSnapshot{}}
	for k, v := range d.Counters {
		out.Counters[k] = v - before.Counters[k]
	}
	for k, h := range d.Histograms {
		out.Histograms[k] = h.Sub(before.Histograms[k])
	}
	return out
}

// add sums two deltas.
func (d metricsDoc) add(o metricsDoc) metricsDoc {
	out := metricsDoc{Counters: map[string]int64{}, Histograms: map[string]telemetry.HistSnapshot{}}
	for _, src := range []metricsDoc{d, o} {
		for k, v := range src.Counters {
			out.Counters[k] += v
		}
		for k, h := range src.Histograms {
			out.Histograms[k] = addSnap(out.Histograms[k], h)
		}
	}
	return out
}

// addSnap merges two log2 histogram snapshots bucket-wise.
func addSnap(a, b telemetry.HistSnapshot) telemetry.HistSnapshot {
	out := telemetry.HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Max: max(a.Max, b.Max)}
	out.Buckets = make([]int64, max(len(a.Buckets), len(b.Buckets)))
	for i := range out.Buckets {
		if i < len(a.Buckets) {
			out.Buckets[i] += a.Buckets[i]
		}
		if i < len(b.Buckets) {
			out.Buckets[i] += b.Buckets[i]
		}
	}
	return out
}

// client is one load-generating connection: an http.Client whose
// transport holds at most one connection per host.
type client struct {
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one JSON body and reads the whole response.
func (c *client) post(url string, body []byte, id string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
