package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// requestBody builds the wire body for one task set + configuration
// list, reusing the CLI JSON schema for the task set.
func requestBody(t *testing.T, ts *taskmodel.TaskSet, cfgs []core.WireConfig) []byte {
	t.Helper()
	var tsBuf bytes.Buffer
	if err := ts.WriteJSON(&tsBuf); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wireAnalyzeRequest{TaskSet: wireTaskSet(t, tsBuf.Bytes()), Configs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// wireTaskSet decodes a WriteJSON rendering into a request's task-set
// field.
func wireTaskSet(t testing.TB, raw []byte) *taskmodel.TaskSetJSON {
	t.Helper()
	var tsj taskmodel.TaskSetJSON
	if err := json.Unmarshal(raw, &tsj); err != nil {
		t.Fatal(err)
	}
	return &tsj
}

func postAnalyze(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeEnvelope(t *testing.T, data []byte) wireAnalyzeResponse {
	t.Helper()
	var env wireAnalyzeResponse
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding envelope: %v\n%s", err, data)
	}
	return env
}

var paperConfigs = []core.WireConfig{
	{Arbiter: "fp"},
	{Arbiter: "fp", Persistence: true},
	{Arbiter: "rr", Persistence: true},
	{Arbiter: "tdma", Persistence: true, CPRO: "multiset"},
}

func coreConfigs(t *testing.T, wire []core.WireConfig) []core.Config {
	t.Helper()
	var tsBuf bytes.Buffer
	if err := fixtures.Fig1TaskSet().WriteJSON(&tsBuf); err != nil {
		t.Fatal(err)
	}
	req := wireAnalyzeRequest{TaskSet: wireTaskSet(t, tsBuf.Bytes()), Configs: wire}
	_, cfgs, err := req.decode()
	if err != nil {
		t.Fatal(err)
	}
	return cfgs
}

// TestResponseByteIdentity is the acceptance pin: the served results
// must be byte-identical to a direct core.AnalyzeBatchOpts call — the
// server is a pure serving layer, whether the answer was computed,
// cached or coalesced.
func TestResponseByteIdentity(t *testing.T) {
	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Observer: obs}).Handler())
	defer hs.Close()

	direct, err := core.AnalyzeBatchOpts(
		[]core.BatchRequest{{TS: fixtures.Fig1TaskSet(), Cfgs: coreConfigs(t, paperConfigs)}}, core.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct[0])
	if err != nil {
		t.Fatal(err)
	}

	body := requestBody(t, fixtures.Fig1TaskSet(), paperConfigs)
	resp, data := postAnalyze(t, hs.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d\n%s", resp.StatusCode, data)
	}
	env := decodeEnvelope(t, data)
	if env.Cached {
		t.Error("first request reported cached")
	}
	if !bytes.Equal([]byte(env.Results), want) {
		t.Errorf("served results differ from direct AnalyzeBatchOpts:\nserver: %s\ndirect: %s", env.Results, want)
	}

	// Re-POST: served from cache, still byte-identical.
	resp2, data2 := postAnalyze(t, hs.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d\n%s", resp2.StatusCode, data2)
	}
	env2 := decodeEnvelope(t, data2)
	if !env2.Cached {
		t.Error("identical re-POST was not served from the cache")
	}
	if env2.Key != env.Key {
		t.Errorf("key changed between identical requests: %s vs %s", env.Key, env2.Key)
	}
	if !bytes.Equal([]byte(env2.Results), want) {
		t.Error("cached results differ from the first computation")
	}
	if got := obs.Metrics.Get(telemetry.CtrServerAnalyses); got != 1 {
		t.Errorf("server.analyses = %d, want 1 (second request must hit the cache)", got)
	}
	if got := obs.Metrics.Get(telemetry.CtrServerCacheHits); got != 1 {
		t.Errorf("server.cache_hits = %d, want 1", got)
	}
}

// TestCoalescingHoldsAnalysesBelowRequests fires N identical requests
// at once; the fault hook stalls the single flight leader long enough
// that every other request must coalesce (or, at worst, hit the cache
// the leader filled). Engine invocations stay at exactly one.
func TestCoalescingHoldsAnalysesBelowRequests(t *testing.T) {
	core.SetBatchFaultHook(func(label string, attempt int) { time.Sleep(100 * time.Millisecond) })
	defer core.SetBatchFaultHook(nil)

	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Observer: obs}).Handler())
	defer hs.Close()

	const n = 10
	body := requestBody(t, fixtures.Fig1TaskSet(), paperConfigs)
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postAnalyze(t, hs.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d\n%s", i, resp.StatusCode, data)
				return
			}
			results[i] = []byte(decodeEnvelope(t, data).Results)
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Errorf("request %d received different bytes", i)
		}
	}
	analyses := obs.Metrics.Get(telemetry.CtrServerAnalyses)
	coalesced := obs.Metrics.Get(telemetry.CtrServerCoalesced)
	hits := obs.Metrics.Get(telemetry.CtrServerCacheHits)
	if analyses != 1 {
		t.Errorf("server.analyses = %d, want exactly 1 for %d duplicate requests", analyses, n)
	}
	if coalesced+hits != n-1 {
		t.Errorf("coalesced (%d) + cache hits (%d) = %d, want %d", coalesced, hits, coalesced+hits, n-1)
	}
	if analyses >= n {
		t.Errorf("coalescing failed to hold analyses (%d) below requests (%d)", analyses, n)
	}
}

// TestLoadShedding: with one worker, no waiting room and the only
// worker pinned, a second distinct request is refused with 429 and a
// Retry-After hint rather than queued without bound.
func TestLoadShedding(t *testing.T) {
	release := make(chan struct{})
	core.SetBatchFaultHook(func(label string, attempt int) { <-release })
	defer core.SetBatchFaultHook(nil)

	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Workers: 1, QueueDepth: -1, Observer: obs}).Handler())
	defer hs.Close()

	bodyA := requestBody(t, fixtures.Fig1TaskSet(), paperConfigs)
	tsB := fixtures.Fig1TaskSet()
	tsB.Platform.DMem = 2 // distinct canonical key
	bodyB := requestBody(t, tsB, paperConfigs)

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, data := postAnalyze(t, hs.URL, bodyA)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("pinned request: status %d\n%s", resp.StatusCode, data)
		}
	}()

	// Wait until A holds the worker (its engine invocation blocks in
	// the hook), then B must shed immediately.
	deadline := time.Now().Add(5 * time.Second)
	for obs.Metrics.Get(telemetry.CtrServerAnalyses) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request A never reached the engine")
		}
		time.Sleep(time.Millisecond)
	}
	resp, data := postAnalyze(t, hs.URL, bodyB)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded request: status %d, want 429\n%s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if got := obs.Metrics.Get(telemetry.CtrServerShed); got != 1 {
		t.Errorf("server.shed = %d, want 1", got)
	}

	close(release)
	<-done
	// After the pool frees up, the shed request succeeds.
	resp2, data2 := postAnalyze(t, hs.URL, bodyB)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("retry after shed: status %d\n%s", resp2.StatusCode, data2)
	}
}

// TestQueuedRequestTimesOut: a request that cannot reach a worker
// before the per-request deadline gets 504, while the request holding
// the worker still completes (a running analysis is never preempted).
func TestQueuedRequestTimesOut(t *testing.T) {
	release := make(chan struct{})
	core.SetBatchFaultHook(func(label string, attempt int) { <-release })
	defer core.SetBatchFaultHook(nil)

	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{
		Workers: 1, QueueDepth: 1, RequestTimeout: 50 * time.Millisecond, Observer: obs,
	}).Handler())
	defer hs.Close()

	bodyA := requestBody(t, fixtures.Fig1TaskSet(), paperConfigs)
	tsB := fixtures.Fig1TaskSet()
	tsB.Platform.DMem = 3
	bodyB := requestBody(t, tsB, paperConfigs)

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, data := postAnalyze(t, hs.URL, bodyA)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("pinned request: status %d\n%s", resp.StatusCode, data)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for obs.Metrics.Get(telemetry.CtrServerAnalyses) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request A never reached the engine")
		}
		time.Sleep(time.Millisecond)
	}

	resp, data := postAnalyze(t, hs.URL, bodyB)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued request: status %d, want 504\n%s", resp.StatusCode, data)
	}
	if got := obs.Metrics.Get(telemetry.CtrServerTimeouts); got == 0 {
		t.Error("server.timeouts not incremented")
	}
	close(release)
	<-done
}

// TestPanicIsolationRecovers: a panicking engine run is retried on the
// reference analyzer and still answers — byte-identical to the direct
// engine result (the two are differentially pinned elsewhere).
func TestPanicIsolationRecovers(t *testing.T) {
	core.SetBatchFaultHook(func(label string, attempt int) {
		if attempt == 0 {
			panic("injected engine fault")
		}
	})
	defer core.SetBatchFaultHook(nil)

	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Observer: obs}).Handler())
	defer hs.Close()

	direct, err := core.AnalyzeBatchOpts(
		[]core.BatchRequest{{TS: fixtures.Fig1TaskSet(), Cfgs: coreConfigs(t, paperConfigs)}}, core.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct[0])

	resp, data := postAnalyze(t, hs.URL, requestBody(t, fixtures.Fig1TaskSet(), paperConfigs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (reference retry should have answered)\n%s", resp.StatusCode, data)
	}
	if got := []byte(decodeEnvelope(t, data).Results); !bytes.Equal(got, want) {
		t.Errorf("reference-retry results differ from the engine:\nserver: %s\ndirect: %s", got, want)
	}
	if got := obs.Metrics.Get(telemetry.CtrJobPanics); got != 1 {
		t.Errorf("sweep.job_panics = %d, want 1", got)
	}
}

// TestPoisonedRequestCannotKillTheDaemon: when both the engine and the
// reference retry panic, the request fails with 500 — and the daemon
// keeps serving.
func TestPoisonedRequestCannotKillTheDaemon(t *testing.T) {
	core.SetBatchFaultHook(func(label string, attempt int) { panic("poisoned") })

	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Observer: obs}).Handler())
	defer hs.Close()

	resp, data := postAnalyze(t, hs.URL, requestBody(t, fixtures.Fig1TaskSet(), paperConfigs))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned request: status %d, want 500\n%s", resp.StatusCode, data)
	}
	if got := obs.Metrics.Get(telemetry.CtrServerFailures); got != 1 {
		t.Errorf("server.failures = %d, want 1", got)
	}

	// The daemon survives: health is green and the same request
	// succeeds once the fault clears.
	core.SetBatchFaultHook(nil)
	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after poisoned request: %v (status %d)", err, hr.StatusCode)
	}
	hr.Body.Close()
	resp2, data2 := postAnalyze(t, hs.URL, requestBody(t, fixtures.Fig1TaskSet(), paperConfigs))
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("request after poison cleared: status %d\n%s", resp2.StatusCode, data2)
	}
}

// TestBatchEndpoint: several task sets in one round trip, duplicates
// inside the batch resolved through the same cache/coalescing path.
func TestBatchEndpoint(t *testing.T) {
	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Observer: obs}).Handler())
	defer hs.Close()

	var tsBuf bytes.Buffer
	if err := fixtures.Fig1TaskSet().WriteJSON(&tsBuf); err != nil {
		t.Fatal(err)
	}
	item := wireAnalyzeRequest{TaskSet: wireTaskSet(t, tsBuf.Bytes()), Configs: paperConfigs[:2]}
	bad := wireAnalyzeRequest{TaskSet: wireTaskSet(t, tsBuf.Bytes()), Configs: []core.WireConfig{{Arbiter: "warp-drive"}}}
	body, _ := json.Marshal(wireBatchRequest{Requests: []wireAnalyzeRequest{item, item, bad}})

	resp, err := http.Post(hs.URL+"/v1/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d\n%s", resp.StatusCode, data)
	}
	var out wireBatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding batch response: %v\n%s", err, data)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[1].Error != "" {
		t.Errorf("good items errored: %+v", out.Results[:2])
	}
	if !bytes.Equal([]byte(out.Results[0].Results), []byte(out.Results[1].Results)) {
		t.Error("duplicate batch items received different bytes")
	}
	if out.Results[0].Key != out.Results[1].Key {
		t.Error("duplicate batch items received different keys")
	}
	if out.Results[2].Error == "" || out.Results[2].Status != http.StatusBadRequest {
		t.Errorf("bad item not rejected: %+v", out.Results[2])
	}
	if got := obs.Metrics.Get(telemetry.CtrServerAnalyses); got != 1 {
		t.Errorf("server.analyses = %d, want 1 (duplicates must share one computation)", got)
	}
}

func TestRequestValidation(t *testing.T) {
	hs := httptest.NewServer(New(Options{}).Handler())
	defer hs.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	if resp, _ := post("{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{"configs":[{"arbiter":"fp"}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing taskset: status %d, want 400", resp.StatusCode)
	}

	var tsBuf bytes.Buffer
	if err := fixtures.Fig1TaskSet().WriteJSON(&tsBuf); err != nil {
		t.Fatal(err)
	}
	noCfg, _ := json.Marshal(wireAnalyzeRequest{TaskSet: wireTaskSet(t, tsBuf.Bytes())})
	if resp, _ := post(string(noCfg)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing configs: status %d, want 400", resp.StatusCode)
	}

	// Invalid task set (deadline beyond period) is caught at decode.
	bad := fixtures.Fig1TaskSet()
	bad.Tasks[0].Deadline = bad.Tasks[0].Period + 1
	var badBuf bytes.Buffer
	if err := bad.WriteJSON(&badBuf); err != nil {
		t.Fatal(err)
	}
	badBody, _ := json.Marshal(wireAnalyzeRequest{TaskSet: wireTaskSet(t, badBuf.Bytes()), Configs: paperConfigs[:1]})
	if resp, data := post(string(badBody)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid task set: status %d, want 400\n%s", resp.StatusCode, data)
	}

	// Wrong method.
	resp, err := http.Get(hs.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthMetricsAndPprofEndpoints(t *testing.T) {
	obs := telemetry.New()
	srv := New(Options{Observer: obs})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	if resp, data := get("/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "ok") {
		t.Errorf("healthz: status %d body %s", resp.StatusCode, data)
	}
	if resp, _ := get("/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: status %d", resp.StatusCode)
	}

	// One request, then the counters must show up on /metrics.
	if resp, data := postAnalyze(t, hs.URL, requestBody(t, fixtures.Fig1TaskSet(), paperConfigs[:1])); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d\n%s", resp.StatusCode, data)
	}
	resp, data := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, data)
	}
	if m.Counters["server.requests"] != 1 || m.Counters["server.analyses"] != 1 {
		t.Errorf("unexpected counters: %v", m.Counters)
	}

	// Drain flips health to 503.
	srv.StartDrain()
	if resp, data := get("/healthz"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), "draining") {
		t.Errorf("healthz while draining: status %d body %s", resp.StatusCode, data)
	}
}

// TestCanonicalizationMergesEquivalentWire: two wire requests that
// differ only in fields the engine ignores (CPRO without persistence)
// share one key and one computation.
func TestCanonicalizationMergesEquivalentWire(t *testing.T) {
	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Observer: obs}).Handler())
	defer hs.Close()

	a := requestBody(t, fixtures.Fig1TaskSet(), []core.WireConfig{{Arbiter: "rr", CPRO: "union"}})
	b := requestBody(t, fixtures.Fig1TaskSet(), []core.WireConfig{{Arbiter: "rr", CPRO: "full"}})
	respA, dataA := postAnalyze(t, hs.URL, a)
	respB, dataB := postAnalyze(t, hs.URL, b)
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("status %d / %d", respA.StatusCode, respB.StatusCode)
	}
	envA, envB := decodeEnvelope(t, dataA), decodeEnvelope(t, dataB)
	if envA.Key != envB.Key {
		t.Errorf("equivalent requests got distinct keys %s vs %s", envA.Key, envB.Key)
	}
	if !envB.Cached {
		t.Error("second equivalent request missed the cache")
	}
	if got := obs.Metrics.Get(telemetry.CtrServerAnalyses); got != 1 {
		t.Errorf("server.analyses = %d, want 1", got)
	}
}

func ExampleServer() {
	// A minimal round trip: serve the paper's Fig. 1 example and ask
	// for the persistence-aware FP analysis.
	hs := httptest.NewServer(New(Options{}).Handler())
	defer hs.Close()

	var tsBuf bytes.Buffer
	if err := fixtures.Fig1TaskSet().WriteJSON(&tsBuf); err != nil {
		panic(err)
	}
	body, _ := json.Marshal(map[string]any{
		"taskset": json.RawMessage(tsBuf.Bytes()),
		"configs": []map[string]any{{"arbiter": "fp", "persistence": true}},
	})
	resp, err := http.Post(hs.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var env struct {
		Results []struct {
			Schedulable bool `json:"Schedulable"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		panic(err)
	}
	fmt.Println("schedulable:", env.Results[0].Schedulable)
	// Output: schedulable: true
}
