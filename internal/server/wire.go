package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/crpd"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
)

// Wire format of the analysis endpoints. Task sets travel in the same
// JSON schema the CLIs exchange (internal/taskmodel); configurations
// use the CLI flag vocabulary ("rr", "ecb-union", ...), so a request
// body is exactly "what you would have passed to buscon", posted.

// wireConfig is one analysis configuration. Empty CRPD/CPRO select the
// paper's defaults (ecb-union, union), matching the CLI flags; the
// arbiter is required.
type wireConfig struct {
	Arbiter            string `json:"arbiter"`
	Persistence        bool   `json:"persistence,omitempty"`
	CRPD               string `json:"crpd,omitempty"`
	CPRO               string `json:"cpro,omitempty"`
	MaxOuterIterations int    `json:"max_outer_iterations,omitempty"`
}

// wireAnalyzeRequest is the body of POST /v1/analyze and one item of
// POST /v1/analyze/batch.
type wireAnalyzeRequest struct {
	TaskSet json.RawMessage `json:"taskset"`
	Configs []wireConfig    `json:"configs"`
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

func parseArbiter(s string) (core.Arbiter, error) {
	switch strings.ToLower(s) {
	case "fp":
		return core.FP, nil
	case "rr":
		return core.RR, nil
	case "tdma":
		return core.TDMA, nil
	case "perfect":
		return core.Perfect, nil
	case "regulated":
		return core.Regulated, nil
	case "paraware":
		return core.ParAware, nil
	case "":
		return 0, fmt.Errorf("missing arbiter (want fp, rr, tdma, perfect, regulated or paraware)")
	default:
		return 0, fmt.Errorf("unknown arbiter %q (want fp, rr, tdma, perfect, regulated or paraware)", s)
	}
}

func parseCRPD(s string) (crpd.Approach, error) {
	switch strings.ToLower(s) {
	case "", "ecb-union":
		return crpd.ECBUnion, nil
	case "ucb-only":
		return crpd.UCBOnly, nil
	case "ecb-only":
		return crpd.ECBOnly, nil
	case "ucb-union":
		return crpd.UCBUnion, nil
	case "combined":
		return crpd.Combined, nil
	default:
		return 0, fmt.Errorf("unknown CRPD approach %q", s)
	}
}

func parseCPRO(s string) (persistence.CPROApproach, error) {
	switch strings.ToLower(s) {
	case "", "union":
		return persistence.Union, nil
	case "multiset":
		return persistence.MultisetUnion, nil
	case "full":
		return persistence.FullReload, nil
	case "none":
		return persistence.None, nil
	default:
		return 0, fmt.Errorf("unknown CPRO approach %q", s)
	}
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
func parseConfigs(wcs []wireConfig) ([]core.Config, error) {
	if len(wcs) == 0 {
		return nil, fmt.Errorf("missing configs (need at least one)")
	}
	cfgs := make([]core.Config, len(wcs))
	for i, wc := range wcs {
		arb, err := parseArbiter(wc.Arbiter)
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		crpdAp, err := parseCRPD(wc.CRPD)
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		cproAp, err := parseCPRO(wc.CPRO)
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		if wc.MaxOuterIterations < 0 {
			return nil, fmt.Errorf("config %d: negative max_outer_iterations", i)
		}
		cfgs[i] = core.Config{
			Arbiter: arb, Persistence: wc.Persistence,
			CRPD: crpdAp, CPRO: cproAp,
			MaxOuterIterations: wc.MaxOuterIterations,
		}
	}
	return cfgs, nil
}
