package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/taskmodel"
)

// Wire format of the analysis endpoints. Task sets travel in the same
// JSON schema the CLIs exchange (internal/taskmodel); configurations
// use the CLI flag vocabulary (core.WireConfig: "rr", "ecb-union", ...),
// so a request body is exactly "what you would have passed to buscon",
// posted.

// wireAnalyzeRequest is the body of POST /v1/analyze and one item of
// POST /v1/analyze/batch.
type wireAnalyzeRequest struct {
	TaskSet json.RawMessage   `json:"taskset"`
	Configs []core.WireConfig `json:"configs"`
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
// task-set validation (taskmodel.ReadJSON) so every later failure is
// an engine matter, not malformed input.
func (r *wireAnalyzeRequest) decode() (*taskmodel.TaskSet, []core.Config, error) {
	if len(r.TaskSet) == 0 {
		return nil, nil, fmt.Errorf("missing taskset")
	}
	ts, err := taskmodel.ReadJSON(bytes.NewReader(r.TaskSet))
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
