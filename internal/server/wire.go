package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/taskmodel"
)

// Wire format of the analysis endpoints. Task sets travel in the same
// JSON schema the CLIs exchange (internal/taskmodel); configurations
// use the CLI flag vocabulary (core.WireConfig: "rr", "ecb-union", ...),
// so a request body is exactly "what you would have passed to buscon",
// posted.

// wireAnalyzeRequest is the body of POST /v1/analyze and one item of
// POST /v1/analyze/batch. The task set is decoded in the same pass as
// the envelope; decode validates it.
type wireAnalyzeRequest struct {
	TaskSet *taskmodel.TaskSetJSON `json:"taskset"`
	Configs []core.WireConfig      `json:"configs"`
}

// wireAnalyzeResponse envelopes the engine results. Results holds the
// marshaled []*core.Result in Configs order, byte-identical to a
// direct core.AnalyzeBatchOpts call (and to every other response for the
// same canonical key, cached or not).
type wireAnalyzeResponse struct {
	Key       string          `json:"key"`
	Cached    bool            `json:"cached"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Results   json.RawMessage `json:"results"`
}

type wireBatchRequest struct {
	Requests []wireAnalyzeRequest `json:"requests"`
}

// decodeAnalyze parses a /v1/analyze body, task set included, in one
// pass.
func decodeAnalyze(body []byte) (wireAnalyzeRequest, error) {
	var req wireAnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, err
	}
	if !repeatsTaskSetKey(body, countTaskSets(req)) {
		return req, nil
	}
	var raw rawAnalyzeRequest
	if err := json.Unmarshal(body, &raw); err != nil {
		return req, err
	}
	return raw.request()
}

// decodeBatch parses a batch body in one pass. A task set that fails to
// decode fails that pass for the whole body, yet it is its item's 400,
// not the batch's: the body is then decoded again with every task set
// kept raw and decoded on its own, and errs[i] carries item i's
// failure. Any other malformation is the batch's, reported as the
// one-pass error.
func decodeBatch(body []byte) (items []wireAnalyzeRequest, errs []error, err error) {
	var req wireBatchRequest
	if err = json.NewDecoder(bytes.NewReader(body)).Decode(&req); err == nil &&
		!repeatsTaskSetKey(body, countTaskSets(req.Requests...)) {
		return req.Requests, nil, nil
	}
	var raw struct {
		Requests []rawAnalyzeRequest `json:"requests"`
	}
	if rerr := json.NewDecoder(bytes.NewReader(body)).Decode(&raw); rerr != nil {
		if err == nil {
			err = rerr
		}
		return nil, nil, err
	}
	items = make([]wireAnalyzeRequest, len(raw.Requests))
	errs = make([]error, len(raw.Requests))
	for i, r := range raw.Requests {
		items[i], errs[i] = r.request()
	}
	return items, errs, nil
}

// rawAnalyzeRequest is wireAnalyzeRequest with the task set left
// undecoded: the two-pass shape decodeAnalyze and decodeBatch fall back
// to when one pass cannot give a task set its own verdict.
type rawAnalyzeRequest struct {
	TaskSet json.RawMessage   `json:"taskset"`
	Configs []core.WireConfig `json:"configs"`
}

// request decodes the raw task set on its own.
func (r *rawAnalyzeRequest) request() (wireAnalyzeRequest, error) {
	req := wireAnalyzeRequest{Configs: r.Configs}
	if len(r.TaskSet) > 0 {
		if err := json.Unmarshal(r.TaskSet, &req.TaskSet); err != nil {
			return req, fmt.Errorf("decoding taskset: %w", err)
		}
	}
	return req, nil
}

func countTaskSets(reqs ...wireAnalyzeRequest) int {
	n := 0
	for _, r := range reqs {
		if r.TaskSet != nil {
			n++
		}
	}
	return n
}

// repeatsTaskSetKey reports whether body may hold more "taskset" keys
// than the n task sets one pass decoded. encoding/json decodes a
// repeated key into the task set the first one allocated, merging the
// two objects, where the last value alone must count; such a body takes
// the two-pass path instead. The count matches the key's ASCII case
// variants after a quote; a backslash or a non-ASCII byte could spell
// it otherwise (escapes, the Kelvin sign folding to 'k'), so either
// makes the answer yes.
func repeatsTaskSetKey(body []byte, n int) bool {
	if bytes.IndexByte(body, '\\') >= 0 {
		return true
	}
	for _, c := range body {
		if c >= utf8.RuneSelf {
			return true
		}
	}
	const key = `taskset"`
	keys := 0
	for i := bytes.IndexByte(body, '"'); i >= 0; {
		rest := body[i+1:]
		if len(rest) >= len(key) && bytes.EqualFold(rest[:len(key)], []byte(key)) {
			keys++
		}
		j := bytes.IndexByte(rest, '"')
		if j < 0 {
			break
		}
		i += 1 + j
	}
	return keys > n
}

// wireBatchItem is one outcome of a batch request; exactly one of
// Results and Error is set.
type wireBatchItem struct {
	Key       string          `json:"key,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Results   json.RawMessage `json:"results,omitempty"`
	Error     string          `json:"error,omitempty"`
	Status    int             `json:"status,omitempty"`
}

type wireBatchResponse struct {
	Results []wireBatchItem `json:"results"`
}

type wireError struct {
	Error string `json:"error"`
}

// decode turns one wire request into engine inputs, running the full
// task-set validation (taskmodel.TaskSetJSON.TaskSet) so every later
// failure is an engine matter, not malformed input.
func (r *wireAnalyzeRequest) decode() (*taskmodel.TaskSet, []core.Config, error) {
	if r.TaskSet == nil {
		return nil, nil, fmt.Errorf("missing taskset")
	}
	ts, err := r.TaskSet.TaskSet()
	if err != nil {
		return nil, nil, err
	}
	cfgs, err := parseConfigs(r.Configs)
	if err != nil {
		return nil, nil, err
	}
	// Cross-field check the parsers cannot see: every configuration must
	// be analyzable against this platform (e.g. a regulated config needs
	// the regulation parameters), so engine switches never reject input.
	for i, cfg := range cfgs {
		if err := cfg.ValidateFor(ts.Platform); err != nil {
			return nil, nil, fmt.Errorf("config %d: %w", i, err)
		}
	}
	return ts, cfgs, nil
}

// parseConfigs maps the wire configurations to engine configurations;
// shared by the analyze, batch and delta decoders.
func parseConfigs(wcs []core.WireConfig) ([]core.Config, error) {
	if len(wcs) == 0 {
		return nil, fmt.Errorf("missing configs (need at least one)")
	}
	cfgs := make([]core.Config, len(wcs))
	for i, wc := range wcs {
		cfg, err := wc.Config()
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}
