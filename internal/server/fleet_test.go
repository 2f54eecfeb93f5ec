package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// The fleet tests run several real servers behind real listeners. The
// ring needs every member URL before server.New, but httptest only
// assigns a URL once the listener is up — so each node starts behind a
// swappable handler: listeners first (URLs known), rings second,
// servers last.
type swapHandler struct{ h atomic.Value }

func newSwapHandler() *swapHandler {
	s := &swapHandler{}
	s.h.Store(http.Handler(http.NotFoundHandler()))
	return s
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(h) }

type fleet struct {
	urls  []string
	srvs  []*Server
	obs   []*telemetry.Observer
	hs    []*httptest.Server
	swaps []*swapHandler
}

func newFleet(t *testing.T, n int, mod func(i int, o *Options)) *fleet {
	t.Helper()
	f := &fleet{}
	swaps := make([]*swapHandler, n)
	for i := 0; i < n; i++ {
		swaps[i] = newSwapHandler()
		hs := httptest.NewServer(swaps[i])
		t.Cleanup(hs.Close)
		f.hs = append(f.hs, hs)
		f.urls = append(f.urls, hs.URL)
	}
	f.swaps = swaps
	for i := 0; i < n; i++ {
		ring, err := cluster.NewRing(f.urls[i], f.urls, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		obs := telemetry.New()
		o := Options{Observer: obs, Ring: ring}
		if mod != nil {
			mod(i, &o)
		}
		srv := New(o)
		f.obs = append(f.obs, obs)
		f.srvs = append(f.srvs, srv)
		swaps[i].set(srv.Handler())
	}
	return f
}

// sum folds one counter across every node — the fleet-wide view the
// accounting invariants are stated in.
func (f *fleet) sum(c telemetry.Counter) int64 {
	var total int64
	for _, o := range f.obs {
		total += o.Metrics.Get(c)
	}
	return total
}

// keyOfBody computes the canonical key the servers will compute for a
// marshaled /v1/analyze body.
func keyOfBody(t *testing.T, body []byte) string {
	t.Helper()
	var req wireAnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	ts, cfgs, err := req.decode()
	if err != nil {
		t.Fatal(err)
	}
	return core.CanonicalKey(ts, cfgs)
}

// ownerIndex maps a key's owner back to its position in f.urls. The
// ring indexes its *sorted* member list, which need not match creation
// order (httptest ports are random), so tests must translate through
// the owner URL.
func (f *fleet) ownerIndex(t *testing.T, key string) int {
	t.Helper()
	url := f.srvs[0].ring.OwnerURL(key)
	for i, u := range f.urls {
		if u == url {
			return i
		}
	}
	t.Fatalf("owner URL %s is not a fleet member", url)
	return -1
}

// bodyOwnedBy searches DMem variants of the Fig. 1 set for one whose
// canonical key the given node owns. httptest ports are fresh every
// run, so ownership cannot be hard-coded — it is resolved against the
// actual ring.
func (f *fleet) bodyOwnedBy(t *testing.T, owner int) []byte {
	t.Helper()
	for d := int64(1); d <= 4096; d++ {
		ts := fixtures.Fig1TaskSet()
		ts.Platform.DMem = d
		body := requestBody(t, ts, paperConfigs[:2])
		if f.ownerIndex(t, keyOfBody(t, body)) == owner {
			return body
		}
	}
	t.Fatalf("no Fig. 1 DMem variant hashed to node %d", owner)
	return nil
}

// TestFleetAnalyzesEachKeyOnce is the tentpole acceptance pin: the same
// request posted to every node of a 3-node fleet is analyzed exactly
// once fleet-wide, every response is byte-identical, and the summed
// server.requests equals the client request count (proxied requests are
// never double-counted at the edge).
func TestFleetAnalyzesEachKeyOnce(t *testing.T) {
	f := newFleet(t, 3, nil)
	body := f.bodyOwnedBy(t, 0)

	var results [][]byte
	for i, url := range f.urls {
		resp, data := postAnalyze(t, url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d: status %d\n%s", i, resp.StatusCode, data)
		}
		results = append(results, []byte(decodeEnvelope(t, data).Results))
	}
	for i := 1; i < len(results); i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Errorf("node %d served different bytes than node 0", i)
		}
	}
	if got := f.sum(telemetry.CtrServerAnalyses); got != 1 {
		t.Errorf("fleet-wide server.analyses = %d, want exactly 1", got)
	}
	if got := f.sum(telemetry.CtrServerRequests); got != 3 {
		t.Errorf("fleet-wide server.requests = %d, want 3 (one per client request)", got)
	}
	if got := f.sum(telemetry.CtrServerPeerProxied); got != 2 {
		t.Errorf("fleet-wide server.peer_proxied = %d, want 2 (the two non-owner edges)", got)
	}
	if got := f.sum(telemetry.CtrServerPeerDegraded); got != 0 {
		t.Errorf("fleet-wide server.peer_degraded = %d, want 0 with all nodes up", got)
	}
	// Owner accounting: node 0 served one fresh analysis plus two
	// forwarded requests from its own cache.
	if got := f.obs[0].Metrics.Get(telemetry.CtrServerCacheHits); got != 2 {
		t.Errorf("owner cache_hits = %d, want 2", got)
	}

	// Edge fill: node 1 kept the relayed bytes, so a repeat POST there is
	// a local cache hit — no second hop.
	resp, data := postAnalyze(t, f.urls[1], body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edge replay: status %d\n%s", resp.StatusCode, data)
	}
	env := decodeEnvelope(t, data)
	if !env.Cached {
		t.Error("edge replay not served from the peer-filled cache")
	}
	if !bytes.Equal([]byte(env.Results), results[0]) {
		t.Error("edge replay served different bytes")
	}
	if got := f.obs[1].Metrics.Get(telemetry.CtrServerPeerProxied); got != 1 {
		t.Errorf("edge replay proxied again: peer_proxied = %d, want 1", got)
	}
	if got := f.obs[1].Metrics.Get(telemetry.CtrServerPeerHits); got != 1 {
		t.Errorf("edge peer_hits = %d, want 1", got)
	}
	if got := f.sum(telemetry.CtrServerAnalyses); got != 1 {
		t.Errorf("fleet-wide server.analyses grew to %d after replay, want 1", got)
	}
}

// TestFleetHopGuardNeverReproxies: a request already carrying the
// forwarded header is handled locally whatever this node's ownership
// opinion — a misconfigured ring costs one hop, never a loop.
func TestFleetHopGuardNeverReproxies(t *testing.T) {
	f := newFleet(t, 3, nil)
	body := f.bodyOwnedBy(t, 1)

	// Post to a non-owner with the hop guard set, as if a confused peer
	// had already routed it here.
	req, err := http.NewRequest(http.MethodPost, f.urls[2]+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, "http://elsewhere:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status %d\n%s", resp.StatusCode, data)
	}
	if got := f.obs[2].Metrics.Get(telemetry.CtrServerPeerProxied); got != 0 {
		t.Errorf("node 2 re-proxied a forwarded request: peer_proxied = %d", got)
	}
	if got := f.obs[2].Metrics.Get(telemetry.CtrServerAnalyses); got != 1 {
		t.Errorf("node 2 analyses = %d, want 1 (forwarded request computes locally)", got)
	}
	if got := f.obs[1].Metrics.Get(telemetry.CtrServerRequests); got != 0 {
		t.Errorf("the true owner saw %d requests, want 0", got)
	}
}

// TestFleetOwnerLossDegradesToLocalCompute: killing the owning node
// must cost latency and cache locality, never availability — the edge
// answers with local compute, zero 5xx, and the loss is visible on
// server.peer_degraded and as the "degraded" verdict.
func TestFleetOwnerLossDegradesToLocalCompute(t *testing.T) {
	var logw syncWriter
	f := newFleet(t, 3, func(i int, o *Options) {
		if i == 0 {
			o.AccessLog = &logw
		}
	})
	body := f.bodyOwnedBy(t, 2)
	f.hs[2].Close() // the owner dies

	resp, data := postAnalyze(t, f.urls[0], body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request: status %d, want 200\n%s", resp.StatusCode, data)
	}
	env := decodeEnvelope(t, data)
	if len(env.Results) == 0 {
		t.Fatal("degraded request returned no results")
	}
	if got := f.obs[0].Metrics.Get(telemetry.CtrServerPeerErrors); got != 1 {
		t.Errorf("server.peer_errors = %d, want 1", got)
	}
	if got := f.obs[0].Metrics.Get(telemetry.CtrServerPeerDegraded); got != 1 {
		t.Errorf("server.peer_degraded = %d, want 1", got)
	}
	if got := f.obs[0].Metrics.Get(telemetry.CtrServerAnalyses); got != 1 {
		t.Errorf("edge analyses = %d, want 1 (local compute)", got)
	}
	line := waitLines(t, &logw, 1)[0]
	var al accessLine
	if err := json.Unmarshal([]byte(line), &al); err != nil {
		t.Fatalf("access line not JSON: %v\n%s", err, line)
	}
	if al.Verdict != "degraded" {
		t.Errorf("verdict = %q, want degraded", al.Verdict)
	}

	// The degraded result landed in the local cache: the replay is a
	// plain cache hit, with no second proxy attempt against the corpse.
	resp2, data2 := postAnalyze(t, f.urls[0], body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d\n%s", resp2.StatusCode, data2)
	}
	if !decodeEnvelope(t, data2).Cached {
		t.Error("replay after degradation missed the local cache")
	}
	if got := f.obs[0].Metrics.Get(telemetry.CtrServerPeerErrors); got != 1 {
		t.Errorf("replay retried the dead owner: peer_errors = %d, want 1", got)
	}
}

// TestFleetOldNodeRejectsNewArbiter pins the mixed-version upgrade
// path: an edge node that understands the regulated arbiter proxies the
// request to its owner, but the owner is an old build whose parser
// rejects "regulated" with a 400. The edge must treat the rejection
// like any other peer failure — degrade, compute locally, answer 200 —
// never relay the 4xx or turn it into a 5xx.
func TestFleetOldNodeRejectsNewArbiter(t *testing.T) {
	f := newFleet(t, 3, nil)
	regCfgs := []core.WireConfig{{Arbiter: "regulated", Persistence: true}}
	// Search DMem variants (with the regulation parameters the config
	// needs) for a body node 2 owns.
	var body []byte
	for d := int64(1); d <= 4096; d++ {
		ts := fixtures.Fig1TaskSet()
		ts.Platform.DMem = taskmodel.Time(d)
		ts.Platform.RegBudget = 4
		ts.Platform.RegPeriod = 100
		b := requestBody(t, ts, regCfgs)
		if f.ownerIndex(t, keyOfBody(t, b)) == 2 {
			body = b
			break
		}
	}
	if body == nil {
		t.Fatal("no regulated Fig. 1 variant hashed to node 2")
	}
	// Replace the owner with an old node: it parses nothing and answers
	// every analyze with the 400 its older vocabulary would produce.
	f.swaps[2].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(wireError{
			Error: `config 0: unknown arbiter "regulated" (want fp, rr, tdma or perfect)`,
		})
	}))

	resp, data := postAnalyze(t, f.urls[0], body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edge answered %d, want 200 (degrade to local compute)\n%s", resp.StatusCode, data)
	}
	env := decodeEnvelope(t, data)
	if len(env.Results) == 0 {
		t.Fatal("degraded request returned no results")
	}
	if got := f.obs[0].Metrics.Get(telemetry.CtrServerPeerDegraded); got != 1 {
		t.Errorf("edge peer_degraded = %d, want 1", got)
	}
	if got := f.obs[0].Metrics.Get(telemetry.CtrServerAnalyses); got != 1 {
		t.Errorf("edge analyses = %d, want 1 (local compute)", got)
	}

	// A genuinely malformed arbiter is still the client's fault: the
	// edge rejects it itself with a named-field 400, no proxying, no 5xx.
	bad := bytes.Replace(body, []byte(`"regulated"`), []byte(`"memguard"`), 1)
	bresp, bdata := postAnalyze(t, f.urls[0], bad)
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown arbiter: status %d, want 400\n%s", bresp.StatusCode, bdata)
	}
	var werr wireError
	if err := json.Unmarshal(bdata, &werr); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, bdata)
	}
	if !strings.Contains(werr.Error, "arbiter") || !strings.Contains(werr.Error, "memguard") {
		t.Errorf("error %q does not name the bad field and value", werr.Error)
	}
}

// TestFleetDeltaRoutesToBaseOwner: deltas route by the *base* key — the
// owner holds the base's inputs and the warm memo backbones — and a
// node that never saw the base proxies instead of 404ing. The edge's
// fill from the relayed delta holds results only: it answers the full
// edited request from cache but is no delta base until that cache hit
// supplies the inputs.
func TestFleetDeltaRoutesToBaseOwner(t *testing.T) {
	f := newFleet(t, 3, nil)
	body := f.bodyOwnedBy(t, 1)

	// Analyze on the owner so only node 1 knows the base.
	resp, data := postAnalyze(t, f.urls[1], body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base: status %d\n%s", resp.StatusCode, data)
	}
	base := decodeEnvelope(t, data)

	dbody, err := json.Marshal(wireDeltaRequest{
		BaseKey: base.Key,
		Edits:   []wireEdit{{Task: fixtures.Fig1TaskSet().Tasks[0].Name, Field: "pd", Value: json.RawMessage("9")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.Post(f.urls[0]+"/v1/analyze/delta", "application/json", bytes.NewReader(dbody))
	if err != nil {
		t.Fatal(err)
	}
	ddata, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta via non-owner: status %d\n%s", dresp.StatusCode, ddata)
	}
	var denv wireDeltaResponse
	if err := json.Unmarshal(ddata, &denv); err != nil {
		t.Fatalf("decoding delta response: %v\n%s", err, ddata)
	}
	if denv.BaseKey != base.Key || denv.Key == base.Key {
		t.Errorf("delta envelope keys wrong: base %s -> %s", denv.BaseKey, denv.Key)
	}
	if got := f.obs[0].Metrics.Get(telemetry.CtrServerDeltaRequests); got != 0 {
		t.Errorf("edge counted delta_requests = %d, want 0 (the owner handled it)", got)
	}
	if got := f.obs[1].Metrics.Get(telemetry.CtrServerDeltaRequests); got != 1 {
		t.Errorf("owner delta_requests = %d, want 1", got)
	}
	if got := f.obs[0].Metrics.Get(telemetry.CtrServerPeerProxied); got != 1 {
		t.Errorf("edge peer_proxied = %d, want 1", got)
	}
	// Edge fill under the *edited* key: the relayed result is now local.
	if _, hit := f.srvs[0].store.get(denv.Key, nil, nil); !hit {
		t.Error("edge did not keep the relayed delta result")
	}

	// The fill holds results only (the owner alone decoded the inputs),
	// so it is no delta base at the edge: a delta on the edited key goes
	// where it would without the fill, to the key's owner, which answers
	// only if it is node 1 (the one node that analyzed the edited set).
	chain := wireDeltaRequest{
		BaseKey: denv.Key,
		Edits:   []wireEdit{{Task: fixtures.Fig1TaskSet().Tasks[0].Name, Field: "pd", Value: json.RawMessage("10")}},
	}
	want := http.StatusNotFound
	if f.ownerIndex(t, denv.Key) == 1 {
		want = http.StatusOK
	}
	if cresp, cdata := postJSON(t, f.urls[0]+"/v1/analyze/delta", chain); cresp.StatusCode != want {
		t.Errorf("delta on the edge-filled key: status %d, want %d\n%s", cresp.StatusCode, want, cdata)
	}
	if got := f.obs[0].Metrics.Get(telemetry.CtrServerDeltaEdits); got != 0 {
		t.Errorf("edge delta_edits = %d, want 0: a result-only entry resolved as a base", got)
	}

	// The edge answers the full edited request from its cache, and that
	// hit supplies the inputs: the same delta now resolves at the edge.
	var req wireAnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	edited, _, err := req.decode()
	if err != nil {
		t.Fatal(err)
	}
	edited.Tasks[0].PD = 9
	aresp, adata := postAnalyze(t, f.urls[0], requestBody(t, edited, paperConfigs[:2]))
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("edited request at the edge: status %d\n%s", aresp.StatusCode, adata)
	}
	if env := decodeEnvelope(t, adata); env.Key != denv.Key || !env.Cached {
		t.Errorf("edited request at the edge: key %s cached %v, want %s from the cache", env.Key, env.Cached, denv.Key)
	}
	if got := f.obs[0].Metrics.Get(telemetry.CtrServerAnalyses); got != 0 {
		t.Errorf("edge analyses = %d, want 0", got)
	}
	if cresp, cdata := postJSON(t, f.urls[0]+"/v1/analyze/delta", chain); cresp.StatusCode != http.StatusOK {
		t.Errorf("delta after the cache hit: status %d, want 200\n%s", cresp.StatusCode, cdata)
	}
	if got := f.obs[0].Metrics.Get(telemetry.CtrServerDeltaEdits); got != 1 {
		t.Errorf("edge delta_edits = %d, want 1: the cache hit did not supply the inputs", got)
	}
}

// TestEncodeAnalyzeBodyRoundTrip pins cluster.EncodeAnalyzeBody against
// the server's wire parser: engine inputs rendered to a request body
// and decoded back must land on the same canonical key, for every
// arbiter/CRPD/CPRO name in the vocabulary — otherwise a cluster-mode
// sweep would miss the caches its own fleet warmed.
func TestEncodeAnalyzeBodyRoundTrip(t *testing.T) {
	wide := []core.WireConfig{
		{Arbiter: "fp"},
		{Arbiter: "fp", Persistence: true, CRPD: "ecb-union", CPRO: "union"},
		{Arbiter: "rr", Persistence: true, CRPD: "ucb-only", CPRO: "multiset"},
		{Arbiter: "tdma", Persistence: true, CRPD: "ecb-only", CPRO: "full"},
		{Arbiter: "perfect", Persistence: true, CRPD: "ucb-union", CPRO: "none"},
		{Arbiter: "fp", Persistence: true, CRPD: "combined", MaxOuterIterations: 7},
		{Arbiter: "regulated", Persistence: true, CRPD: "ecb-union", CPRO: "union"},
		{Arbiter: "paraware", Persistence: true, CRPD: "ucb-only", CPRO: "multiset"},
	}
	ts := fixtures.Fig1TaskSet()
	ts.Platform.RegBudget = 4
	ts.Platform.RegPeriod = 100
	// Not coreConfigs: that helper decodes against the plain Fig. 1
	// platform, whose zero regulation parameters would reject the
	// regulated entry before the round trip under test even starts.
	cfgs, err := parseConfigs(wide)
	if err != nil {
		t.Fatal(err)
	}

	body, encErr := cluster.EncodeAnalyzeBody(ts, cfgs)
	if encErr != nil {
		t.Fatal(encErr)
	}
	var req wireAnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	ts2, cfgs2, err := req.decode()
	if err != nil {
		t.Fatalf("server rejected an encoded body: %v\n%s", err, body)
	}
	if len(cfgs2) != len(cfgs) {
		t.Fatalf("round trip changed config count: %d -> %d", len(cfgs), len(cfgs2))
	}
	if got, want := core.CanonicalKey(ts2, cfgs2), core.CanonicalKey(ts, cfgs); got != want {
		t.Errorf("canonical key drifted through the wire encoding:\nencoded: %s\ndirect:  %s", got, want)
	}
}

// refusingNode serves srv behind a gate that answers the first post of
// every distinct body with status(n) for the n-th refusal (Retry-After
// 0, so retries need not wait) and passes later posts through.
func refusingNode(t *testing.T, srv *Server, status func(n int64) int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var mu sync.Mutex
	seen := map[string]bool{}
	var refusals atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		first := !seen[string(body)]
		seen[string(body)] = true
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(status(refusals.Add(1)))
			_, _ = io.WriteString(w, `{"error":"refused"}`)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs, &refusals
}

// clientBatch is six Fig. 1 variants (processing demand nudged per
// request) under the paper configurations.
func clientBatch(t *testing.T) []core.BatchRequest {
	t.Helper()
	cfgs := coreConfigs(t, paperConfigs)
	var reqs []core.BatchRequest
	for i := 0; i < 6; i++ {
		ts := fixtures.Fig1TaskSet()
		ts.Tasks[0].PD += taskmodel.Time(i)
		reqs = append(reqs, core.BatchRequest{TS: ts, Cfgs: cfgs})
	}
	return reqs
}

// TestClientRetriesTransientRefusals: a node that refuses every
// request once, in turn with a shed (429), an unavailable node (503)
// and a queue timeout (504), loses no sample of a cluster batch: the
// client retries each and its results equal core.AnalyzeAll's.
func TestClientRetriesTransientRefusals(t *testing.T) {
	statuses := []int{http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout}
	hs, refusals := refusingNode(t, New(Options{}), func(n int64) int { return statuses[(n-1)%3] })
	client, err := cluster.NewClient([]string{hs.URL}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	reqs := clientBatch(t)
	out, err := client.AnalyzeBatch(reqs, core.BatchOptions{
		Workers:   3,
		OnFailure: func(i int, _ string, err error, _ []byte) { t.Errorf("request %d failed: %v", i, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := refusals.Load(); got != int64(len(reqs)) {
		t.Errorf("node refused %d posts, want one per request (%d)", got, len(reqs))
	}
	for i, r := range reqs {
		want, err := core.AnalyzeAll(r.TS, r.Cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out[i], want) {
			t.Errorf("request %d: fleet results differ from core.AnalyzeAll", i)
		}
	}
}

// TestClientDoesNotRetryRequestFailures: a 400 is the request's own
// failure, reported once through OnFailure after a single post.
func TestClientDoesNotRetryRequestFailures(t *testing.T) {
	hs, refusals := refusingNode(t, New(Options{}), func(int64) int { return http.StatusBadRequest })
	client, err := cluster.NewClient([]string{hs.URL}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	reqs := clientBatch(t)[:1]
	var failures atomic.Int64
	out, err := client.AnalyzeBatch(reqs, core.BatchOptions{
		OnFailure: func(int, string, error, []byte) { failures.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != nil || failures.Load() != 1 || refusals.Load() != 1 {
		t.Errorf("400 answer: results %v, %d failures, %d posts refused; want no results, 1 failure, 1 post",
			out[0], failures.Load(), refusals.Load())
	}
}
