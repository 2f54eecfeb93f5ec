package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/taskmodel"
)

// Client submits analysis batches to a buscond fleet — the remote
// counterpart of core.AnalyzeBatchOpts, with the same callback
// contract, so internal/experiments can swap it in (Options.Analyze)
// and run cluster-wide sweeps through the exact same fold and
// checkpoint machinery as a local run.
//
// Each request is posted straight to the node that owns its canonical
// key (the same partition the fleet routes by), so a well-configured
// client never costs a proxy hop and every node's cache warms with
// exactly the keys it owns. That partition is unrelated to a sweep's
// -shard split, which divides jobs by job key: one sweep shard's
// requests spread over every node. A stale node list still works — the
// fleet's own routing corrects the placement at one hop of cost.
type Client struct {
	nodes  []string
	client *http.Client
}

// NewClient builds a fleet client from the member URLs.
func NewClient(members []string, timeout time.Duration) (*Client, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: no nodes given")
	}
	seen := map[string]bool{}
	var nodes []string
	for _, m := range members {
		u, err := canonicalURL(m)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %q: %w", m, err)
		}
		if !seen[u] {
			seen[u] = true
			nodes = append(nodes, u)
		}
	}
	sort.Strings(nodes)
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	return &Client{nodes: nodes, client: &http.Client{Timeout: timeout}}, nil
}

// analyzeEnvelope is the slice of the /v1/analyze response the client
// consumes.
type analyzeEnvelope struct {
	Key     string          `json:"key"`
	Results json.RawMessage `json:"results"`
	Error   string          `json:"error"`
}

// AnalyzeBatch matches the experiments.Options.Analyze hook: it
// resolves every request against the fleet with opts.Workers
// concurrent submissions and returns per-request results in order.
// opts.OnResult fires as requests complete, opts.OnFailure reports
// per-request analysis failures (HTTP 4xx/5xx from the owning node —
// the remote analog of an isolated job failure — after a shed, an
// unavailable node or a queue timeout has been retried as analyzeOne
// describes); a transport error
// fails the batch, because it means the fleet itself is unreachable
// and every remaining job would fail the same way. A canceled context
// returns the partial results plus the context error, mirroring
// core.AnalyzeBatchOpts.
func (c *Client) AnalyzeBatch(reqs []core.BatchRequest, opts core.BatchOptions) ([][]*core.Result, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}

	out := make([][]*core.Result, len(reqs))
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				res, err := c.analyzeOne(ctx, reqs[i])
				if err != nil {
					var he *httpError
					if errors.As(err, &he) {
						// The owning node answered with a failure status:
						// this request is poisoned, the fleet is fine.
						if opts.OnFailure != nil {
							opts.OnFailure(i, reqs[i].Label, err, nil)
						}
					} else {
						fail(err)
					}
					continue
				}
				out[i] = res
				if opts.OnResult != nil {
					opts.OnResult(i, res, reqs[i].Label)
				}
			}
		}()
	}

dispatch:
	for i := range reqs {
		select {
		case work <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return out, err
	}
	if firstErr != nil {
		return out, firstErr
	}
	return out, nil
}

// httpError is a failure status from the owning node, with the wait
// its Retry-After asks for before a retry.
type httpError struct {
	status int
	body   string
	wait   time.Duration
}

func (e *httpError) Error() string {
	return fmt.Sprintf("cluster: node returned %d: %s", e.status, e.body)
}

// transient reports whether the node refused the request for now
// rather than for good: a shed (429), a node that is unavailable or
// draining (503), or a timeout while queued (504). Any other failure
// status is the request's own.
func (e *httpError) transient() bool {
	return e.status == http.StatusTooManyRequests ||
		e.status == http.StatusServiceUnavailable ||
		e.status == http.StatusGatewayTimeout
}

// maxAttempts bounds how often analyzeOne posts one request: the first
// try and up to maxAttempts−1 retries of a transient refusal.
const maxAttempts = 5

// maxRetryWait caps the wait before one retry, whatever Retry-After
// says; defaultRetryWait is the wait when the node gives none.
const (
	maxRetryWait     = 30 * time.Second
	defaultRetryWait = time.Second
)

// retryWait reads a response's Retry-After in whole seconds, capped at
// maxRetryWait, or defaultRetryWait without a readable one.
func retryWait(h http.Header) time.Duration {
	secs, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || secs < 0 {
		return defaultRetryWait
	}
	return min(time.Duration(secs)*time.Second, maxRetryWait)
}

// analyzeOne posts one request to its owning node and decodes the
// result slice. A transient refusal is retried after the node's
// Retry-After, at most maxAttempts posts in all, for as long as ctx
// lasts; the last refusal is returned as the request's failure.
func (c *Client) analyzeOne(ctx context.Context, req core.BatchRequest) ([]*core.Result, error) {
	key := core.CanonicalKey(req.TS, req.Cfgs)
	body, err := EncodeAnalyzeBody(req.TS, req.Cfgs)
	if err != nil {
		return nil, err
	}
	node := c.nodes[checkpoint.PartitionIndex(key, len(c.nodes))]
	for attempt := 1; ; attempt++ {
		res, err := c.post(ctx, node, body, len(req.Cfgs))
		var he *httpError
		if !errors.As(err, &he) || !he.transient() || attempt == maxAttempts {
			return res, err
		}
		t := time.NewTimer(he.wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// post makes one attempt at a request body on node.
func (c *Client) post(ctx context.Context, node string, body []byte, ncfgs int) ([]*core.Result, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var env analyzeEnvelope
	if derr := json.NewDecoder(resp.Body).Decode(&env); derr != nil && resp.StatusCode == http.StatusOK {
		return nil, fmt.Errorf("cluster: decoding %s response: %w", node, derr)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &httpError{status: resp.StatusCode, body: env.Error, wait: retryWait(resp.Header)}
	}
	var results []*core.Result
	if err := json.Unmarshal(env.Results, &results); err != nil {
		return nil, fmt.Errorf("cluster: decoding results from %s: %w", node, err)
	}
	if len(results) != ncfgs {
		return nil, fmt.Errorf("cluster: %s returned %d results for %d configs", node, len(results), ncfgs)
	}
	return results, nil
}

// EncodeAnalyzeBody renders engine inputs as a /v1/analyze request
// body in the server's wire vocabulary (core.Config.Wire, the inverse
// of the server's core.WireConfig.Config); a round-trip test in
// internal/server pins the two against each other via the canonical key.
func EncodeAnalyzeBody(ts *taskmodel.TaskSet, cfgs []core.Config) ([]byte, error) {
	wcs := make([]core.WireConfig, len(cfgs))
	for i, c := range cfgs {
		wc, err := c.Wire()
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		wcs[i] = wc
	}
	return json.Marshal(map[string]any{
		"taskset": taskmodel.NewTaskSetJSON(ts),
		"configs": wcs,
	})
}
