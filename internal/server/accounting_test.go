package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/telemetry"
)

// TestFollowerAbandonIsNotCoalesced pins the flightGroup contract for a
// follower whose own context expires while the leader is still in
// flight: it received nothing, so it must report shared=false with an
// error that classifies as a timeout — not count as a coalesce.
func TestFollowerAbandonIsNotCoalesced(t *testing.T) {
	g := newFlightGroup()
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = g.do(context.Background(), "k", func() (json.RawMessage, error) {
			close(entered)
			<-release
			return json.RawMessage(`"late"`), nil
		})
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the follower's own deadline already passed
	raw, shared, err := g.do(ctx, "k", func() (json.RawMessage, error) {
		t.Error("expired follower ran its own computation")
		return nil, nil
	})
	if shared {
		t.Error("expired follower reported shared=true — it got no shared result")
	}
	if raw != nil {
		t.Errorf("expired follower received bytes: %s", raw)
	}
	var fte *followerTimeoutError
	if !errors.As(err, &fte) {
		t.Fatalf("error %v (%T) is not a followerTimeoutError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("followerTimeoutError does not unwrap to the context error: %v", err)
	}
	if verdictOf(err) != "timeout" {
		t.Errorf("verdictOf = %q, want timeout", verdictOf(err))
	}
	if statusOf(err) != http.StatusGatewayTimeout {
		t.Errorf("statusOf = %d, want 504", statusOf(err))
	}
	close(release)
	<-leaderDone
}

// TestFollowerTimeoutCountsAsTimeoutNotCoalesce drives the same
// contract end to end: with the flight leader pinned in the engine, an
// identical request whose client gives up must account as a timeout —
// server.coalesced stays zero and the access line says "timeout".
func TestFollowerTimeoutCountsAsTimeoutNotCoalesce(t *testing.T) {
	release := make(chan struct{})
	core.SetBatchFaultHook(func(label string, attempt int) { <-release })
	defer core.SetBatchFaultHook(nil)

	var logw syncWriter
	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Observer: obs, AccessLog: &logw}).Handler())
	defer hs.Close()

	body := requestBody(t, fixtures.Fig1TaskSet(), paperConfigs[:1])
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		resp, err := http.Post(hs.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for obs.Metrics.Get(telemetry.CtrServerAnalyses) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached the engine")
		}
		time.Sleep(time.Millisecond)
	}

	// The follower joins the in-flight call, then its client hangs up.
	// The transport may surface the abort before the 504 lands, so the
	// assertions ride on the counters and the access log, not the
	// response.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	deadline = time.Now().Add(5 * time.Second)
	for obs.Metrics.Get(telemetry.CtrServerTimeouts) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned follower never counted as a timeout")
		}
		time.Sleep(time.Millisecond)
	}
	if got := obs.Metrics.Get(telemetry.CtrServerCoalesced); got != 0 {
		t.Errorf("server.coalesced = %d, want 0 — the follower received nothing", got)
	}
	line := waitLines(t, &logw, 1)[0]
	var follower accessLine
	if err := json.Unmarshal([]byte(line), &follower); err != nil {
		t.Fatalf("access line not JSON: %v\n%s", err, line)
	}
	if follower.Verdict != "timeout" {
		t.Errorf("follower verdict = %q, want timeout", follower.Verdict)
	}
	close(release)
	<-leaderDone
}

// TestShedRequestLeavesBaseRegistryUntouched pins the satellite fix:
// a request becomes addressable as a delta base only once it resolves.
// Registering at admission time would let a flood of shed requests
// churn the registry and evict bases that were actually analyzed.
func TestShedRequestLeavesBaseRegistryUntouched(t *testing.T) {
	release := make(chan struct{})
	core.SetBatchFaultHook(func(label string, attempt int) { <-release })
	defer core.SetBatchFaultHook(nil)

	obs := telemetry.New()
	srv := New(Options{Workers: 1, QueueDepth: -1, Observer: obs})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	bodyA := requestBody(t, fixtures.Fig1TaskSet(), paperConfigs[:1])
	tsB := fixtures.Fig1TaskSet()
	tsB.Platform.DMem = 7
	bodyB := requestBody(t, tsB, paperConfigs[:1])

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
	// A is mid-flight: not registered yet.
	if got := srv.bases.len(); got != 0 {
		t.Errorf("base registry holds %d entries while the only request is unresolved, want 0", got)
	}

	resp, data := postAnalyze(t, hs.URL, bodyB)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload request: status %d, want 429\n%s", resp.StatusCode, data)
	}
	if got := srv.bases.len(); got != 0 {
		t.Errorf("shed request registered a delta base: registry len %d, want 0", got)
	}

	close(release)
	<-done
	if got := srv.bases.len(); got != 1 {
		t.Errorf("resolved request not registered: registry len %d, want 1", got)
	}
	// The cached replay re-registers the same key — no duplicate entry.
	if resp, data := postAnalyze(t, hs.URL, bodyA); resp.StatusCode != http.StatusOK {
		t.Fatalf("cached replay: status %d\n%s", resp.StatusCode, data)
	}
	if got := srv.bases.len(); got != 1 {
		t.Errorf("cached replay duplicated the base: registry len %d, want 1", got)
	}
	_ = data
}

// TestCacheFillChargedToCacheStage pins the stage-accounting satellite:
// the post-marshal cache fill is cache time, not marshal time. The TTL
// clock (Options.Now) is the only seam inside resultCache.put, so a
// deliberately slow clock makes a mischarged fill show up as an
// implausibly fat marshal stage.
func TestCacheFillChargedToCacheStage(t *testing.T) {
	const stall = 30 * time.Millisecond
	var logw syncWriter
	hs := httptest.NewServer(New(Options{
		AccessLog: &logw,
		CacheTTL:  time.Hour,
		Now: func() time.Time {
			time.Sleep(stall)
			return time.Now()
		},
	}).Handler())
	defer hs.Close()

	resp, data := postAnalyze(t, hs.URL, requestBody(t, fixtures.Fig1TaskSet(), paperConfigs[:1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d\n%s", resp.StatusCode, data)
	}
	line := waitLines(t, &logw, 1)[0]
	var fresh accessLine
	if err := json.Unmarshal([]byte(line), &fresh); err != nil {
		t.Fatalf("access line not JSON: %v\n%s", err, line)
	}
	// One clock read happens inside cache.put (the TTL stamp); its stall
	// must land in the cache stage, leaving marshal with only the actual
	// serialization and response write.
	margin := (stall - 5*time.Millisecond).Microseconds()
	if fresh.Stages["cache"] < margin {
		t.Errorf("stage.cache_us = %d, want >= %d (cache fill not charged to the cache stage)",
			fresh.Stages["cache"], margin)
	}
	if fresh.Stages["marshal"] >= margin {
		t.Errorf("stage.marshal_us = %d — the cache fill is being charged to the marshal stage",
			fresh.Stages["marshal"])
	}
}

// TestBatchFanOutBounded pins the batch-admission satellite: a large
// batch is worked by a fixed runner pool, not one goroutine per item —
// a 64-item batch must not add anywhere near 64 goroutines.
func TestBatchFanOutBounded(t *testing.T) {
	release := make(chan struct{})
	core.SetBatchFaultHook(func(label string, attempt int) { <-release })
	defer core.SetBatchFaultHook(nil)

	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Workers: 2, Observer: obs}).Handler())
	defer hs.Close()

	const items = 64
	reqs := make([]wireAnalyzeRequest, items)
	for i := range reqs {
		ts := fixtures.Fig1TaskSet()
		ts.Platform.DMem = int64(i + 1) // distinct canonical keys
		var tsBuf bytes.Buffer
		if err := ts.WriteJSON(&tsBuf); err != nil {
			t.Fatal(err)
		}
		reqs[i] = wireAnalyzeRequest{TaskSet: wireTaskSet(t, tsBuf.Bytes()), Configs: paperConfigs[:1]}
	}
	body, err := json.Marshal(wireBatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	type batchOut struct {
		status int
		data   []byte
	}
	done := make(chan batchOut, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/v1/analyze/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- batchOut{}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- batchOut{resp.StatusCode, data}
	}()

	// Both runners are parked inside the engine once two analyses have
	// started; with per-item goroutines, all 64 items would be running
	// (or parked in admission) by now instead.
	deadline := time.Now().Add(5 * time.Second)
	for obs.Metrics.Get(telemetry.CtrServerAnalyses) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("batch runners never reached the engine")
		}
		time.Sleep(time.Millisecond)
	}
	if grew := runtime.NumGoroutine() - baseline; grew >= items/2 {
		t.Errorf("goroutines grew by %d for a %d-item batch — fan-out is unbounded", grew, items)
	}

	close(release)
	out := <-done
	if out.status != http.StatusOK {
		t.Fatalf("batch status = %d\n%s", out.status, out.data)
	}
	var br wireBatchResponse
	if err := json.Unmarshal(out.data, &br); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	if len(br.Results) != items {
		t.Fatalf("got %d results, want %d", len(br.Results), items)
	}
	for i, it := range br.Results {
		if it.Error != "" {
			t.Errorf("item %d failed: %s (status %d)", i, it.Error, it.Status)
		}
	}
}

// TestBatchSizeLimit: a batch beyond maxBatchItems is a 400, not an
// allocation storm.
func TestBatchSizeLimit(t *testing.T) {
	hs := httptest.NewServer(New(Options{}).Handler())
	defer hs.Close()

	body, err := json.Marshal(wireBatchRequest{Requests: make([]wireAnalyzeRequest, maxBatchItems+1)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400\n%s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "limit") {
		t.Errorf("400 body does not explain the limit: %s", data)
	}
}
