package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
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

// TestShedRequestLeavesBaseRegistryUntouched pins that a request
// enters the request store, and so becomes addressable as a delta
// base, only once it resolves. Storing it at admission time would let
// a flood of shed requests churn the store and evict bases that were
// actually analyzed.
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
	// A is mid-flight: not stored yet.
	if got := srv.store.len(); got != 0 {
		t.Errorf("store holds %d entries while the only request is unresolved, want 0", got)
	}

	resp, data := postAnalyze(t, hs.URL, bodyB)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload request: status %d, want 429\n%s", resp.StatusCode, data)
	}
	if got := srv.store.len(); got != 0 {
		t.Errorf("shed request stored a delta base: store len %d, want 0", got)
	}

	close(release)
	<-done
	if got := srv.store.len(); got != 1 {
		t.Errorf("resolved request not stored: store len %d, want 1", got)
	}
	if e, _ := srv.store.get(keyOfBody(t, bodyA), nil, nil); e.ts == nil {
		t.Error("resolved request stored without its inputs: not a delta base")
	}
	// The cached replay touches the same key — no duplicate entry.
	if resp, data := postAnalyze(t, hs.URL, bodyA); resp.StatusCode != http.StatusOK {
		t.Fatalf("cached replay: status %d\n%s", resp.StatusCode, data)
	}
	if got := srv.store.len(); got != 1 {
		t.Errorf("cached replay duplicated the base: store len %d, want 1", got)
	}
	_ = data
}

// TestCacheFillChargedToCacheStage pins that the post-marshal store
// fill is cache time, not marshal time. The engine's fault hook takes
// the store's mutex and a timer releases it a stall later, so the fill
// that follows the engine waits on the lock; charged to the wrong stage,
// that wait shows up as an implausibly fat marshal stage.
func TestCacheFillChargedToCacheStage(t *testing.T) {
	const stall = 30 * time.Millisecond
	var logw syncWriter
	srv := New(Options{AccessLog: &logw})
	var once sync.Once
	core.SetBatchFaultHook(func(label string, attempt int) {
		once.Do(func() {
			srv.store.mu.Lock()
			time.AfterFunc(stall, srv.store.mu.Unlock)
		})
	})
	defer core.SetBatchFaultHook(nil)
	hs := httptest.NewServer(srv.Handler())
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
	// The fill's wait for the lock must land in the cache stage, leaving
	// marshal with only the actual serialization and response write.
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
