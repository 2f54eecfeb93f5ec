package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/telemetry"
)

// TestRetryAfterNeverZero pins the satellite fix: a sub-second
// RetryAfter hint must ceil to "1", not round (or truncate) to "0" —
// Retry-After: 0 tells well-behaved clients to hammer immediately.
func TestRetryAfterNeverZero(t *testing.T) {
	cases := []struct {
		retryAfter time.Duration
		want       string
	}{
		{100 * time.Millisecond, "1"}, // Round(time.Second) used to yield 0
		{499 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"}, // partial seconds ceil, not floor
		{0, "1"},                       // option default
	}
	for _, tc := range cases {
		srv := New(Options{RetryAfter: tc.retryAfter})
		rec := httptest.NewRecorder()
		srv.writeError(rec, http.StatusTooManyRequests, errShed)
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("RetryAfter=%v: header %q, want %q", tc.retryAfter, got, tc.want)
		}
		if got := rec.Header().Get("Retry-After"); got == "0" {
			t.Errorf("RetryAfter=%v produced the forbidden \"0\"", tc.retryAfter)
		}
	}
	// Non-429 statuses carry no hint.
	srv := New(Options{})
	rec := httptest.NewRecorder()
	srv.writeError(rec, http.StatusBadRequest, fmt.Errorf("nope"))
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Errorf("400 response carries Retry-After %q", got)
	}
}

// metricsJSON is the JSON /metrics document shape the tests consume.
type metricsJSON struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Max   int64   `json:"max"`
		P50   float64 `json:"p50"`
		P95   float64 `json:"p95"`
		P99   float64 `json:"p99"`
	} `json:"histograms"`
}

func scrapeJSON(t *testing.T, url string) metricsJSON {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	return m
}

// TestGaugesUnderConcurrentLoad pins the inflight and queue_depth
// gauges: with one worker pinned inside the engine and two distinct
// requests admitted behind it, /metrics must report queue_depth 2 and
// an inflight count covering all blocked requests.
func TestGaugesUnderConcurrentLoad(t *testing.T) {
	release := make(chan struct{})
	core.SetBatchFaultHook(func(label string, attempt int) { <-release })
	defer core.SetBatchFaultHook(nil)

	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Workers: 1, QueueDepth: 2, Observer: obs}).Handler())
	defer hs.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		ts := fixtures.Fig1TaskSet()
		ts.Platform.DMem = int64(i + 1) // distinct canonical keys
		body := requestBody(t, ts, paperConfigs[:1])
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postAnalyze(t, hs.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("pinned request: status %d", resp.StatusCode)
			}
		}()
	}

	// Steady state: one request in the engine, two queued behind it.
	deadline := time.Now().Add(5 * time.Second)
	var m metricsJSON
	for {
		m = scrapeJSON(t, hs.URL)
		if m.Gauges["server.queue_depth"] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached depth 2: gauges %v", m.Gauges)
		}
		time.Sleep(time.Millisecond)
	}
	// The three analysis requests are all still in flight (the /metrics
	// scrape itself also counts while being served).
	if got := m.Gauges["server.inflight"]; got < 3 {
		t.Errorf("server.inflight = %d, want >= 3 while all requests are blocked", got)
	}

	close(release)
	wg.Wait()
	// The inflight decrement happens after the response is written;
	// poll until the middleware has fully unwound.
	deadline = time.Now().Add(5 * time.Second)
	for {
		m = scrapeJSON(t, hs.URL)
		if m.Gauges["server.inflight"] == 1 && m.Gauges["server.queue_depth"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges never drained: %v (want inflight 1 — the scrape itself — and queue_depth 0)", m.Gauges)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMetricsEndpointFormats: the JSON document carries counters,
// gauges and stage histograms with quantiles; ?format=prometheus
// serves a well-formed 0.0.4 exposition of the same state. The budget
// gauges carry the bytes the request store and the memo account.
func TestMetricsEndpointFormats(t *testing.T) {
	srv := New(Options{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body := requestBody(t, fixtures.Fig1TaskSet(), paperConfigs[:1])
	for i := 0; i < 2; i++ { // fresh, then cached
		if resp, data := postAnalyze(t, hs.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: status %d\n%s", resp.StatusCode, data)
		}
	}

	// The stage flush happens after the response is written, so poll
	// until both requests' timers have landed.
	deadline := time.Now().Add(5 * time.Second)
	var m metricsJSON
	for {
		m = scrapeJSON(t, hs.URL)
		if m.Histograms["server.request_us"].Count >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request histogram never reached 2 observations: %+v", m.Histograms)
		}
		time.Sleep(time.Millisecond)
	}
	if m.Counters["server.requests"] != 2 || m.Counters["server.analyses"] != 1 {
		t.Errorf("unexpected counters: %v", m.Counters)
	}
	if _, ok := m.Gauges["server.inflight"]; !ok {
		t.Error("JSON metrics missing server.inflight gauge")
	}
	if _, ok := m.Gauges["server.queue_depth"]; !ok {
		t.Error("JSON metrics missing server.queue_depth gauge")
	}
	cacheBytes, memoBytes := srv.store.bytes(), srv.memo.Bytes()
	if cacheBytes == 0 || memoBytes == 0 {
		t.Fatalf("after one analysis: store %d B, memo %d B; want both non-zero", cacheBytes, memoBytes)
	}
	if got := m.Gauges["server.cache_bytes"]; got != cacheBytes {
		t.Errorf("server.cache_bytes = %d, want the store's %d", got, cacheBytes)
	}
	if got := m.Gauges["core.memo_bytes"]; got != memoBytes {
		t.Errorf("core.memo_bytes = %d, want the memo's %d", got, memoBytes)
	}
	rt := m.Histograms["server.request_us"]
	if rt.P99 < rt.P50 || float64(rt.Max) < rt.P99 {
		t.Errorf("quantiles disordered: p50=%v p99=%v max=%d", rt.P50, rt.P99, rt.Max)
	}
	if an, ok := m.Histograms["server.stage_analyze_us"]; !ok || an.Count != 1 {
		t.Errorf("stage_analyze_us = %+v (ok=%v), want count 1 (one engine run)", an, ok)
	}
	if ca, ok := m.Histograms["server.stage_cache_us"]; !ok || ca.Count != 2 {
		t.Errorf("stage_cache_us = %+v (ok=%v), want count 2 (every request touches the cache)", ca, ok)
	}

	resp, err := http.Get(hs.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentTypePrometheus {
		t.Errorf("prometheus content-type = %q", ct)
	}
	text := string(data)
	for _, want := range []string{
		"server_requests 2",
		"# TYPE server_inflight gauge",
		"# TYPE server_queue_depth gauge",
		"# TYPE server_cache_bytes gauge",
		fmt.Sprintf("server_cache_bytes %d", cacheBytes),
		"# TYPE core_memo_bytes gauge",
		fmt.Sprintf("core_memo_bytes %d", memoBytes),
		"# TYPE server_request_us histogram",
		"server_stage_analyze_us_count 1",
		// Only analysis requests charge stages, so this stays exact even
		// though the scrapes themselves keep feeding server_request_us.
		`server_stage_analyze_us_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// syncWriter is a race-free sink for access-log lines: the middleware
// logs after the response is written, so the client can observe the
// response before the line lands.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) lines() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := strings.TrimRight(w.buf.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func waitLines(t *testing.T, w *syncWriter, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ls := w.lines(); len(ls) >= n {
			return ls
		}
		if time.Now().After(deadline) {
			t.Fatalf("access log never reached %d lines: %q", n, w.lines())
		}
		time.Sleep(time.Millisecond)
	}
}

// accessLine mirrors accessEntry for decoding in tests.
type accessLine struct {
	Time    string           `json:"time"`
	ID      string           `json:"id"`
	Method  string           `json:"method"`
	Path    string           `json:"path"`
	Status  int              `json:"status"`
	Verdict string           `json:"verdict"`
	DurUS   int64            `json:"dur_us"`
	Stages  map[string]int64 `json:"stages"`
	Cache   int64            `json:"cache_hits"`
	Runs    int64            `json:"analyses"`
}

// TestAccessLogJSON: one line per request, carrying the request ID,
// verdict and per-stage durations; a fresh request charges the analyze
// stage, its duplicate charges only cache.
func TestAccessLogJSON(t *testing.T) {
	var logw syncWriter
	hs := httptest.NewServer(New(Options{AccessLog: &logw}).Handler())
	defer hs.Close()

	body := requestBody(t, fixtures.Fig1TaskSet(), paperConfigs[:1])
	for i := 0; i < 2; i++ {
		if resp, data := postAnalyze(t, hs.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: status %d\n%s", resp.StatusCode, data)
		}
	}
	lines := waitLines(t, &logw, 2)
	var fresh, cached accessLine
	if err := json.Unmarshal([]byte(lines[0]), &fresh); err != nil {
		t.Fatalf("line 1 not JSON: %v\n%s", err, lines[0])
	}
	if err := json.Unmarshal([]byte(lines[1]), &cached); err != nil {
		t.Fatalf("line 2 not JSON: %v\n%s", err, lines[1])
	}
	if fresh.Verdict != "fresh" || cached.Verdict != "cached" {
		t.Errorf("verdicts = %q, %q; want fresh, cached", fresh.Verdict, cached.Verdict)
	}
	if fresh.ID == "" || cached.ID == "" || fresh.ID == cached.ID {
		t.Errorf("request IDs not unique: %q vs %q", fresh.ID, cached.ID)
	}
	if fresh.Method != "POST" || fresh.Path != "/v1/analyze" || fresh.Status != http.StatusOK {
		t.Errorf("fresh line envelope wrong: %+v", fresh)
	}
	if _, err := time.Parse(time.RFC3339Nano, fresh.Time); err != nil {
		t.Errorf("timestamp not RFC3339: %v", err)
	}
	if fresh.Runs != 1 || fresh.Stages["analyze"] <= 0 {
		t.Errorf("fresh request missing analyze stage: %+v", fresh)
	}
	if cached.Cache != 1 || cached.Runs != 0 {
		t.Errorf("cached request attribution wrong: %+v", cached)
	}
	if _, ok := cached.Stages["analyze"]; ok {
		t.Errorf("cached request charged the analyze stage: %+v", cached)
	}
	if fresh.DurUS <= 0 {
		t.Errorf("dur_us = %d, want > 0", fresh.DurUS)
	}
}

// TestAccessLogText: the text format renders the same request as
// key=value pairs on one line.
func TestAccessLogText(t *testing.T) {
	var logw syncWriter
	hs := httptest.NewServer(New(Options{AccessLog: &logw, AccessLogFormat: "text"}).Handler())
	defer hs.Close()

	if resp, data := postAnalyze(t, hs.URL, requestBody(t, fixtures.Fig1TaskSet(), paperConfigs[:1])); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d\n%s", resp.StatusCode, data)
	}
	line := waitLines(t, &logw, 1)[0]
	for _, want := range []string{"id=", "method=POST", "path=/v1/analyze", "status=200", "verdict=fresh", "dur_us=", "stage.analyze_us="} {
		if !strings.Contains(line, want) {
			t.Errorf("text line missing %q:\n%s", want, line)
		}
	}
}

// TestRequestIDPropagation: a well-formed client X-Request-ID is
// echoed back and logged; a missing or malformed one is replaced by a
// generated hex ID.
func TestRequestIDPropagation(t *testing.T) {
	var logw syncWriter
	hs := httptest.NewServer(New(Options{AccessLog: &logw}).Handler())
	defer hs.Close()

	body := requestBody(t, fixtures.Fig1TaskSet(), paperConfigs[:1])
	post := func(id string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/analyze", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if got := post("sweep-42.step_7").Header.Get("X-Request-ID"); got != "sweep-42.step_7" {
		t.Errorf("well-formed ID not echoed: got %q", got)
	}
	hexID := regexp.MustCompile(`^[0-9a-f]{16}$`)
	if got := post("").Header.Get("X-Request-ID"); !hexID.MatchString(got) {
		t.Errorf("missing ID not replaced by generated hex: got %q", got)
	}
	if got := post("bad id with spaces " + strings.Repeat("x", 100)).Header.Get("X-Request-ID"); !hexID.MatchString(got) {
		t.Errorf("malformed ID not replaced: got %q", got)
	}

	lines := waitLines(t, &logw, 3)
	var first accessLine
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.ID != "sweep-42.step_7" {
		t.Errorf("client ID not logged: %q", first.ID)
	}
}

// TestDeltaVerdict: a successful delta request logs as "delta".
func TestDeltaVerdict(t *testing.T) {
	var logw syncWriter
	hs := httptest.NewServer(New(Options{AccessLog: &logw}).Handler())
	defer hs.Close()

	resp, data := postAnalyze(t, hs.URL, requestBody(t, fixtures.Fig1TaskSet(), paperConfigs[:1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base: status %d\n%s", resp.StatusCode, data)
	}
	base := decodeEnvelope(t, data)
	dreq, _ := json.Marshal(wireDeltaRequest{
		BaseKey: base.Key,
		Edits:   []wireEdit{{Task: fixtures.Fig1TaskSet().Tasks[0].Name, Field: "pd", Value: json.RawMessage("7")}},
	})
	dresp, err := http.Post(hs.URL+"/v1/analyze/delta", "application/json", bytes.NewReader(dreq))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d", dresp.StatusCode)
	}

	lines := waitLines(t, &logw, 2)
	var dl accessLine
	if err := json.Unmarshal([]byte(lines[1]), &dl); err != nil {
		t.Fatal(err)
	}
	if dl.Verdict != "delta" {
		t.Errorf("delta verdict = %q, want delta", dl.Verdict)
	}
	if dl.Path != "/v1/analyze/delta" {
		t.Errorf("delta path = %q", dl.Path)
	}
}

// TestShedVerdictAndLog: a shed request logs verdict "shed" with
// status 429.
func TestShedVerdictAndLog(t *testing.T) {
	release := make(chan struct{})
	core.SetBatchFaultHook(func(label string, attempt int) { <-release })
	defer core.SetBatchFaultHook(nil)

	var logw syncWriter
	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Workers: 1, QueueDepth: -1, Observer: obs, AccessLog: &logw}).Handler())
	defer hs.Close()

	// The pinned request holds the only worker; its outcome is not
	// asserted (and t must not be used off the test goroutine).
	pinned := requestBody(t, fixtures.Fig1TaskSet(), paperConfigs[:1])
	go func() {
		resp, err := http.Post(hs.URL+"/v1/analyze", "application/json", bytes.NewReader(pinned))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for obs.Metrics.Get(telemetry.CtrServerAnalyses) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pinned request never reached the engine")
		}
		time.Sleep(time.Millisecond)
	}

	ts := fixtures.Fig1TaskSet()
	ts.Platform.DMem = 5
	resp, _ := postAnalyze(t, hs.URL, requestBody(t, ts, paperConfigs[:1]))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	lines := waitLines(t, &logw, 1)
	var shed accessLine
	if err := json.Unmarshal([]byte(lines[0]), &shed); err != nil {
		t.Fatal(err)
	}
	if shed.Verdict != "shed" || shed.Status != http.StatusTooManyRequests {
		t.Errorf("shed line = %+v, want verdict shed status 429", shed)
	}
	close(release)
}
