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

// wireAnalyzeRequest is the body of POST /v1/analyze. The task set is
// decoded in the same pass as the envelope; decode validates it.
type wireAnalyzeRequest struct {
	TaskSet *taskmodel.TaskSetJSON `json:"taskset"`
	Configs []core.WireConfig      `json:"configs"`
}

// wireAnalyzeResponse envelopes the engine results. Results holds the
// marshaled []*core.Result in Configs order, byte-identical to a
// direct core.AnalyzeAll call (and to every other response for the
// same canonical key, cached or not). The server writes it with
// appendEnvelope (encode.go); the struct is the schema a fleet edge
// decodes a peer's reply with, and the form FuzzAppendResults holds
// the appender to.
type wireAnalyzeResponse struct {
	Key       string          `json:"key"`
	Cached    bool            `json:"cached"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Results   json.RawMessage `json:"results"`
}

// decodeAnalyze parses a /v1/analyze body, task set included, in one
// pass: scanAnalyze reads the plain form every client emits, and
// encoding/json the rest.
func decodeAnalyze(body []byte) (wireAnalyzeRequest, error) {
	if req, ok := scanAnalyze(body); ok {
		return req, nil
	}
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

// The JSON names of wireAnalyzeRequest's and core.WireConfig's fields,
// in the order taskmodel.Scanner.Key's bits follow.
var (
	envelopeKeys = []string{"taskset", "configs"}
	configKeys   = []string{"arbiter", "persistence", "crpd", "cpro", "max_outer_iterations"}
)

// scanAnalyze reads body with a taskmodel.Scanner; ok=false means "not
// the plain form", never "invalid".
func scanAnalyze(body []byte) (req wireAnalyzeRequest, ok bool) {
	s := taskmodel.NewScanner(body)
	var seen uint64
	s.Open('{')
	for s.More('}') {
		switch s.Key(envelopeKeys, &seen) {
		case "taskset":
			req.TaskSet = new(taskmodel.TaskSetJSON)
			s.TaskSet(req.TaskSet)
		case "configs":
			req.Configs = []core.WireConfig{}
			s.Open('[')
			for s.More(']') {
				req.Configs = append(req.Configs, scanConfig(&s))
			}
		}
	}
	return req, s.End()
}

func scanConfig(s *taskmodel.Scanner) (wc core.WireConfig) {
	var seen uint64
	s.Open('{')
	for s.More('}') {
		switch s.Key(configKeys, &seen) {
		case "arbiter":
			wc.Arbiter = s.Str()
		case "persistence":
			wc.Persistence = s.Bool()
		case "crpd":
			wc.CRPD = s.Str()
		case "cpro":
			wc.CPRO = s.Str()
		case "max_outer_iterations":
			wc.MaxOuterIterations = s.Int()
		}
	}
	return wc
}

// rawAnalyzeRequest is wireAnalyzeRequest with the task set left
// undecoded: the two-pass shape decodeAnalyze's encoding/json path
// falls back to when one pass may have merged repeated "taskset" keys.
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

func countTaskSets(req wireAnalyzeRequest) int {
	if req.TaskSet != nil {
		return 1
	}
	return 0
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

type wireError struct {
	Error string `json:"error"`
}

// decode turns one wire request into engine inputs, running the
// bitset-memory bound (checkSetBytes) and the full task-set validation
// (taskmodel.TaskSetJSON.TaskSet) so every later failure is an engine
// matter, not malformed input.
func (r *wireAnalyzeRequest) decode() (*taskmodel.TaskSet, []core.Config, error) {
	if r.TaskSet == nil {
		return nil, nil, fmt.Errorf("missing taskset")
	}
	if err := checkSetBytes(r.TaskSet.Platform.Cache.NumSets, len(r.TaskSet.Tasks)); err != nil {
		return nil, nil, err
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

// maxConfigs bounds the configurations of one request, each of which
// is one analysis on the worker the request holds. The vocabulary's
// full cross product (6 arbiters × persistence on/off × 5 CRPD × 4
// CPRO approaches) is 240 configurations, so every distinct variant
// still fits in one request.
const maxConfigs = 256

// parseConfigs maps the wire configurations to engine configurations;
// shared by the analyze and delta decoders.
func parseConfigs(wcs []core.WireConfig) ([]core.Config, error) {
	if len(wcs) == 0 {
		return nil, fmt.Errorf("missing configs (need at least one)")
	}
	if len(wcs) > maxConfigs {
		return nil, fmt.Errorf("configs: %d configurations exceed the limit of %d", len(wcs), maxConfigs)
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
