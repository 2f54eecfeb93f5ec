package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cacheset"
	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

func decodeDelta(t *testing.T, data []byte) wireDeltaResponse {
	t.Helper()
	var env wireDeltaResponse
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding delta envelope: %v\n%s", err, data)
	}
	return env
}

// deltaCase pairs a wire edit list with an independent re-statement of
// the same edit as direct struct mutation, so the test checks
// applyEdits against a second implementation rather than against
// itself.
type deltaCase struct {
	name   string
	edits  []wireEdit
	mutate func(plat *taskmodel.Platform, tasks []*taskmodel.Task)
}

func fig1ByName(tasks []*taskmodel.Task, name string) *taskmodel.Task {
	for _, tk := range tasks {
		if tk.Name == name {
			return tk
		}
	}
	return nil
}

func deltaGrid() []deltaCase {
	n := fixtures.Fig1NumSets
	raw := func(v any) json.RawMessage {
		b, _ := json.Marshal(v)
		return b
	}
	prio := func(v int) *int { return &v }
	return []deltaCase{
		{"pd", []wireEdit{{Task: "tau2", Field: "pd", Value: raw(40)}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) { fig1ByName(ts, "tau2").PD = 40 }},
		{"pd by priority selector", []wireEdit{{Priority: prio(1), Field: "pd", Value: raw(41)}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) { fig1ByName(ts, "tau2").PD = 41 }},
		{"md", []wireEdit{{Task: "tau1", Field: "md", Value: raw(7)}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) { fig1ByName(ts, "tau1").MD = 7 }},
		{"mdr", []wireEdit{{Task: "tau1", Field: "mdr", Value: raw(0)}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) { fig1ByName(ts, "tau1").MDr = 0 }},
		{"period+deadline", []wireEdit{
			{Task: "tau3", Field: "period", Value: raw(60)},
			{Task: "tau3", Field: "deadline", Value: raw(45)}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) {
				fig1ByName(ts, "tau3").Period = 60
				fig1ByName(ts, "tau3").Deadline = 45
			}},
		{"priority", []wireEdit{{Task: "tau1", Field: "priority", Value: raw(3)}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) { fig1ByName(ts, "tau1").Priority = 3 }},
		{"core", []wireEdit{{Task: "tau2", Field: "core", Value: raw(1)}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) { fig1ByName(ts, "tau2").Core = 1 }},
		{"ucb", []wireEdit{{Task: "tau2", Field: "ucb", Value: raw([]int{5})}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) { fig1ByName(ts, "tau2").UCB = cacheset.Of(n, 5) }},
		{"ecb", []wireEdit{{Task: "tau3", Field: "ecb", Value: raw([]int{5, 6, 7, 8, 9, 10, 11})}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) {
				fig1ByName(ts, "tau3").ECB = cacheset.Of(n, 5, 6, 7, 8, 9, 10, 11)
			}},
		{"pcb", []wireEdit{{Task: "tau1", Field: "pcb", Value: raw([]int{5, 6})}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) { fig1ByName(ts, "tau1").PCB = cacheset.Of(n, 5, 6) }},
		{"d_mem", []wireEdit{{Field: "d_mem", Value: raw(2)}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) { p.DMem = 2 }},
		{"slot_size", []wireEdit{{Field: "slot_size", Value: raw(2)}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) { p.SlotSize = 2 }},
		{"mixed", []wireEdit{
			{Task: "tau1", Field: "pd", Value: raw(6)},
			{Field: "d_mem", Value: raw(3)}},
			func(p *taskmodel.Platform, ts []*taskmodel.Task) {
				fig1ByName(ts, "tau1").PD = 6
				p.DMem = 3
			}},
	}
}

// analyzeDirect answers a full /v1/analyze body without a server: the
// server's own decode, then core.AnalyzeAll with no memo and the
// response encoder. It is the reference a delta answer must equal byte
// for byte.
func analyzeDirect(t testing.TB, body []byte) (string, json.RawMessage, error) {
	t.Helper()
	req, err := decodeAnalyze(body)
	if err != nil {
		return "", nil, err
	}
	ts, cfgs, err := req.decode()
	if err != nil {
		return "", nil, err
	}
	res, err := core.AnalyzeAll(ts, cfgs)
	if err != nil {
		return "", nil, err
	}
	return core.CanonicalKey(ts, cfgs), encodeResults(res), nil
}

// TestDeltaByteIdentity is the delta acceptance pin: over a grid of
// edits covering every editable field, the /v1/analyze/delta response
// must be byte-identical (results and canonical key) to the
// hand-edited full request — here answered by analyzeDirect, without a
// memo, so the comparison also pins the memoized engine against the
// plain one across the HTTP boundary.
func TestDeltaByteIdentity(t *testing.T) {
	obs := telemetry.New()
	deltaSrv := httptest.NewServer(New(Options{Observer: obs}).Handler())
	defer deltaSrv.Close()

	resp, data := postAnalyze(t, deltaSrv.URL, requestBody(t, fixtures.Fig1TaskSet(), paperConfigs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base analyze: status %d\n%s", resp.StatusCode, data)
	}
	baseKey := decodeEnvelope(t, data).Key

	for _, tc := range deltaGrid() {
		t.Run(tc.name, func(t *testing.T) {
			dResp, dData := postJSON(t, deltaSrv.URL+"/v1/analyze/delta",
				wireDeltaRequest{BaseKey: baseKey, Edits: tc.edits})
			if dResp.StatusCode != http.StatusOK {
				t.Fatalf("delta: status %d\n%s", dResp.StatusCode, dData)
			}
			dEnv := decodeDelta(t, dData)
			if dEnv.BaseKey != baseKey {
				t.Errorf("response base_key %s != request base %s", dEnv.BaseKey, baseKey)
			}

			// Fresh path: the same edit stated as direct struct mutation.
			base := fixtures.Fig1TaskSet()
			plat := base.Platform
			tasks := make([]*taskmodel.Task, len(base.Tasks))
			for i, tk := range base.Tasks {
				c := *tk
				tasks[i] = &c
			}
			tc.mutate(&plat, tasks)
			edited := taskmodel.NewTaskSet(plat, tasks)
			fKey, fResults, err := analyzeDirect(t, requestBody(t, edited, paperConfigs))
			if err != nil {
				t.Fatalf("fresh analyze: %v", err)
			}
			if dEnv.Key != fKey {
				t.Errorf("delta key %s != fresh key %s (edit application diverged)", dEnv.Key, fKey)
			}
			if !bytes.Equal(dEnv.Results, fResults) {
				t.Errorf("delta results differ from the fresh path:\ndelta: %s\nfresh: %s", dEnv.Results, fResults)
			}
		})
	}

	if hits := obs.Metrics.Get(telemetry.CtrMemoHits); hits == 0 {
		t.Error("core.memo_hits = 0 across the delta grid; the memo store is not being reused")
	}
	if hits := obs.Metrics.Get(telemetry.CtrCurveMemoHits); hits == 0 {
		t.Error("core.curve_memo_hits = 0 across the delta grid; curve backbones are not being reused")
	}
	if got := obs.Metrics.Get(telemetry.CtrServerDeltaRequests); got != int64(len(deltaGrid())) {
		t.Errorf("server.delta_requests = %d, want %d", got, len(deltaGrid()))
	}
}

// TestDeltaChainingAndConfigOverride: a delta response's key is itself
// a valid base (sweeps chain edit over edit), an identical delta
// re-POST is served from the result cache, and a config override
// re-analyzes the base under the new grid.
func TestDeltaChainingAndConfigOverride(t *testing.T) {
	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Observer: obs}).Handler())
	defer hs.Close()
	raw := func(v any) json.RawMessage { b, _ := json.Marshal(v); return b }

	resp, data := postAnalyze(t, hs.URL, requestBody(t, fixtures.Fig1TaskSet(), paperConfigs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base: status %d\n%s", resp.StatusCode, data)
	}
	baseKey := decodeEnvelope(t, data).Key

	step1 := wireDeltaRequest{BaseKey: baseKey, Edits: []wireEdit{{Task: "tau2", Field: "pd", Value: raw(33)}}}
	r1, d1 := postJSON(t, hs.URL+"/v1/analyze/delta", step1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("step1: status %d\n%s", r1.StatusCode, d1)
	}
	env1 := decodeDelta(t, d1)

	// Chain: edit pd again relative to step1's result.
	step2 := wireDeltaRequest{BaseKey: env1.Key, Edits: []wireEdit{{Task: "tau2", Field: "pd", Value: raw(34)}}}
	r2, d2 := postJSON(t, hs.URL+"/v1/analyze/delta", step2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("step2 (chained off a delta result): status %d\n%s", r2.StatusCode, d2)
	}
	env2 := decodeDelta(t, d2)
	if env2.Key == env1.Key {
		t.Error("chained edit produced the same canonical key")
	}

	// Identical re-POST of step2 hits the result cache.
	r3, d3 := postJSON(t, hs.URL+"/v1/analyze/delta", step2)
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("step2 re-POST: status %d\n%s", r3.StatusCode, d3)
	}
	env3 := decodeDelta(t, d3)
	if !env3.Cached {
		t.Error("identical delta re-POST not served from the cache")
	}
	if !bytes.Equal([]byte(env3.Results), []byte(env2.Results)) {
		t.Error("cached delta bytes differ from the computed ones")
	}

	// Config override without edits: same task set, different grid.
	ov := wireDeltaRequest{BaseKey: baseKey, Configs: []core.WireConfig{{Arbiter: "rr"}}}
	r4, d4 := postJSON(t, hs.URL+"/v1/analyze/delta", ov)
	if r4.StatusCode != http.StatusOK {
		t.Fatalf("config override: status %d\n%s", r4.StatusCode, d4)
	}
	env4 := decodeDelta(t, d4)
	fr, fd := postAnalyze(t, hs.URL, requestBody(t, fixtures.Fig1TaskSet(), []core.WireConfig{{Arbiter: "rr"}}))
	if fr.StatusCode != http.StatusOK {
		t.Fatalf("fresh override reference: status %d\n%s", fr.StatusCode, fd)
	}
	if fEnv := decodeEnvelope(t, fd); fEnv.Key != env4.Key || !bytes.Equal([]byte(fEnv.Results), []byte(env4.Results)) {
		t.Error("config-override delta diverges from the fresh path")
	}
}

func TestDeltaErrors(t *testing.T) {
	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Observer: obs}).Handler())
	defer hs.Close()
	raw := func(v any) json.RawMessage { b, _ := json.Marshal(v); return b }

	// Method and body validation.
	if resp, err := http.Get(hs.URL + "/v1/analyze/delta"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: err=%v status=%d, want 405", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Post(hs.URL+"/v1/analyze/delta", "application/json", bytes.NewReader([]byte("{not json"))); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: err=%v status=%d, want 400", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Missing and unknown base keys.
	if resp, data := postJSON(t, hs.URL+"/v1/analyze/delta", wireDeltaRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing base_key: status %d, want 400\n%s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, hs.URL+"/v1/analyze/delta", wireDeltaRequest{BaseKey: "deadbeef"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown base_key: status %d, want 404\n%s", resp.StatusCode, data)
	}
	if got := obs.Metrics.Get(telemetry.CtrServerDeltaBaseMisses); got != 1 {
		t.Errorf("server.delta_base_misses = %d, want 1", got)
	}

	// Establish a base, then exercise the edit validation paths.
	resp, data := postAnalyze(t, hs.URL, requestBody(t, fixtures.Fig1TaskSet(), paperConfigs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base: status %d\n%s", resp.StatusCode, data)
	}
	baseKey := decodeEnvelope(t, data).Key

	prio := func(v int) *int { return &v }
	bad := []struct {
		name string
		req  wireDeltaRequest
	}{
		{"unknown task", wireDeltaRequest{BaseKey: baseKey,
			Edits: []wireEdit{{Task: "tau9", Field: "pd", Value: raw(5)}}}},
		{"unknown priority selector", wireDeltaRequest{BaseKey: baseKey,
			Edits: []wireEdit{{Priority: prio(9), Field: "pd", Value: raw(5)}}}},
		{"priority/name selector mismatch", wireDeltaRequest{BaseKey: baseKey,
			Edits: []wireEdit{{Priority: prio(0), Task: "tau2", Field: "pd", Value: raw(5)}}}},
		{"unknown task field", wireDeltaRequest{BaseKey: baseKey,
			Edits: []wireEdit{{Task: "tau1", Field: "weight", Value: raw(5)}}}},
		{"unknown platform field", wireDeltaRequest{BaseKey: baseKey,
			Edits: []wireEdit{{Field: "num_cores", Value: raw(4)}}}},
		{"non-numeric scalar", wireDeltaRequest{BaseKey: baseKey,
			Edits: []wireEdit{{Task: "tau1", Field: "pd", Value: raw("fast")}}}},
		{"set index out of range", wireDeltaRequest{BaseKey: baseKey,
			Edits: []wireEdit{{Task: "tau1", Field: "ucb", Value: raw([]int{99})}}}},
		{"invalid edited set", wireDeltaRequest{BaseKey: baseKey,
			Edits: []wireEdit{{Task: "tau2", Field: "deadline", Value: raw(200)}}}}, // D > T
		{"bad config override", wireDeltaRequest{BaseKey: baseKey,
			Configs: []core.WireConfig{{Arbiter: "warp-drive"}}}},
	}
	for _, tc := range bad {
		if resp, data := postJSON(t, hs.URL+"/v1/analyze/delta", tc.req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400\n%s", tc.name, resp.StatusCode, data)
		}
	}
}

// TestDeltaAmbiguousName: benchmark-derived task names repeat in
// generated sets, so a name selector matching several tasks must be
// rejected (400 pointing at the priority selector) — not silently
// resolved to an arbitrary one — while the priority selector still
// addresses each duplicate exactly.
func TestDeltaAmbiguousName(t *testing.T) {
	hs := httptest.NewServer(New(Options{}).Handler())
	defer hs.Close()
	raw := func(v any) json.RawMessage { b, _ := json.Marshal(v); return b }

	base := fixtures.Fig1TaskSet()
	tasks := make([]*taskmodel.Task, len(base.Tasks))
	for i, tk := range base.Tasks {
		c := *tk
		tasks[i] = &c
	}
	fig1ByName(tasks, "tau3").Name = "tau1" // two tasks named tau1
	dup := taskmodel.NewTaskSet(base.Platform, tasks)

	resp, data := postAnalyze(t, hs.URL, requestBody(t, dup, paperConfigs[:1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base: status %d\n%s", resp.StatusCode, data)
	}
	baseKey := decodeEnvelope(t, data).Key

	amb := wireDeltaRequest{BaseKey: baseKey, Edits: []wireEdit{{Task: "tau1", Field: "pd", Value: raw(5)}}}
	if resp, data := postJSON(t, hs.URL+"/v1/analyze/delta", amb); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ambiguous name: status %d, want 400\n%s", resp.StatusCode, data)
	}

	p := 2 // the renamed tau3's priority
	byPrio := wireDeltaRequest{BaseKey: baseKey, Edits: []wireEdit{{Priority: &p, Field: "pd", Value: raw(5)}}}
	dResp, dData := postJSON(t, hs.URL+"/v1/analyze/delta", byPrio)
	if dResp.StatusCode != http.StatusOK {
		t.Fatalf("priority selector on duplicate names: status %d\n%s", dResp.StatusCode, dData)
	}
	// Differential: the edit must have landed on the priority-2 task.
	fig1ByName(tasks[2:], "tau1").PD = 5 // tasks sorted by priority; index 2 = priority 2
	edited := taskmodel.NewTaskSet(dup.Platform, tasks)
	fResp, fData := postAnalyze(t, hs.URL, requestBody(t, edited, paperConfigs[:1]))
	if fResp.StatusCode != http.StatusOK {
		t.Fatalf("fresh: status %d\n%s", fResp.StatusCode, fData)
	}
	if dk, fk := decodeDelta(t, dData).Key, decodeEnvelope(t, fData).Key; dk != fk {
		t.Errorf("priority-selected edit landed on the wrong task: delta key %s != fresh key %s", dk, fk)
	}
}

// TestDeltaDisabled: a negative MemBudget turns off the request store,
// and with it the delta endpoint, into a guaranteed 404 (no base is
// ever stored) without affecting the plain analyze path.
func TestDeltaDisabled(t *testing.T) {
	hs := httptest.NewServer(New(Options{MemBudget: -1}).Handler())
	defer hs.Close()

	resp, data := postAnalyze(t, hs.URL, requestBody(t, fixtures.Fig1TaskSet(), paperConfigs[:1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze with deltas disabled: status %d\n%s", resp.StatusCode, data)
	}
	key := decodeEnvelope(t, data).Key
	if dResp, dData := postJSON(t, hs.URL+"/v1/analyze/delta", wireDeltaRequest{BaseKey: key}); dResp.StatusCode != http.StatusNotFound {
		t.Errorf("delta with the store disabled: status %d, want 404\n%s", dResp.StatusCode, dData)
	}
}

// TestDeltaEditCannotInvalidateRegulatedConfig: an edit that zeroes a
// regulation parameter under a regulated configuration is malformed
// input — the delta path must answer a named-field 400 before the
// engine sees it, never a 500.
func TestDeltaEditCannotInvalidateRegulatedConfig(t *testing.T) {
	obs := telemetry.New()
	hs := httptest.NewServer(New(Options{Observer: obs}).Handler())
	defer hs.Close()
	raw := func(v any) json.RawMessage { b, _ := json.Marshal(v); return b }

	ts := fixtures.Fig1TaskSet()
	ts.Platform.RegBudget = 4
	ts.Platform.RegPeriod = 100
	regCfgs := []core.WireConfig{{Arbiter: "regulated", Persistence: true}}
	resp, data := postAnalyze(t, hs.URL, requestBody(t, ts, regCfgs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base: status %d\n%s", resp.StatusCode, data)
	}
	baseKey := decodeEnvelope(t, data).Key

	// A valid regulation edit still works and moves the key.
	ok := wireDeltaRequest{BaseKey: baseKey, Edits: []wireEdit{{Field: "reg_budget", Value: raw(8)}}}
	r1, d1 := postJSON(t, hs.URL+"/v1/analyze/delta", ok)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("reg_budget edit: status %d\n%s", r1.StatusCode, d1)
	}
	if decodeDelta(t, d1).Key == baseKey {
		t.Error("reg_budget edit did not change the canonical key")
	}

	// Zeroing the budget invalidates the regulated config: 400, not 500.
	bad := wireDeltaRequest{BaseKey: baseKey, Edits: []wireEdit{{Field: "reg_budget", Value: raw(0)}}}
	r2, d2 := postJSON(t, hs.URL+"/v1/analyze/delta", bad)
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("zeroed reg_budget: status %d, want 400\n%s", r2.StatusCode, d2)
	}
	var we wireError
	if err := json.Unmarshal(d2, &we); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, d2)
	}
	if !strings.Contains(we.Error, "RegBudget") && !strings.Contains(we.Error, "reg") {
		t.Errorf("error %q does not name the offending field", we.Error)
	}
}

// fuzzDeltaFields is FuzzDelta's edit vocabulary: the task fields, then
// the platform fields.
var fuzzDeltaFields = []string{
	"pd", "md", "mdr", "period", "deadline", "priority", "core", "ucb", "ecb", "pcb",
	"d_mem", "slot_size", "reg_budget", "reg_period",
}

// fuzzDeltaStep decodes one step of a FuzzDelta input against the
// current base: 4-byte records (op, task, lo, hi) up to one whose field
// index is past the vocabulary. Each record yields a wire edit and the
// same edit stated as direct struct mutation of the base's copy. It
// returns the edits, the edited set and the unread input.
func fuzzDeltaStep(base *taskmodel.TaskSet, data []byte) ([]wireEdit, *taskmodel.TaskSet, []byte) {
	plat := base.Platform
	tasks := make([]*taskmodel.Task, len(base.Tasks))
	for i, tk := range base.Tasks {
		c := *tk
		tasks[i] = &c
	}
	var edits []wireEdit
	for ; len(data) >= 4; data = data[4:] {
		op, sel, lo, hi := data[0], data[1], data[2], data[3]
		f := int(op & 0x0f)
		if f >= len(fuzzDeltaFields) {
			data = data[4:]
			break
		}
		e := wireEdit{Field: fuzzDeltaFields[f]}
		v := int64(lo)
		switch e.Field {
		case "priority":
			v %= 8
		case "core":
			v %= 3 // 2 names a core Fig. 1's platform lacks
		}
		e.Value, _ = json.Marshal(v) // an int64 or []int always marshals
		if f < 10 {
			i := int(sel) % len(tasks)
			if op&0x10 != 0 {
				p := base.Tasks[i].Priority
				e.Priority = &p
			} else {
				e.Task = base.Tasks[i].Name
			}
			tk := tasks[i]
			switch e.Field {
			case "pd":
				tk.PD = v
			case "md":
				tk.MD = v
			case "mdr":
				tk.MDr = v
			case "period":
				tk.Period = v
			case "deadline":
				tk.Deadline = v
			case "priority":
				tk.Priority = int(v)
			case "core":
				tk.Core = int(v)
			default:
				n := plat.Cache.NumSets
				var idx []int
				for b, mask := 0, int(lo)|int(hi)<<8; b < 16 && b < n; b++ {
					if mask&(1<<b) != 0 {
						idx = append(idx, b)
					}
				}
				e.Value, _ = json.Marshal(idx)
				s := cacheset.FromSorted(n, idx)
				switch e.Field {
				case "ucb":
					tk.UCB = s
				case "ecb":
					tk.ECB = s
				case "pcb":
					tk.PCB = s
				}
			}
		} else {
			switch e.Field {
			case "d_mem":
				plat.DMem = v
			case "slot_size":
				plat.SlotSize = int(v)
			case "reg_budget":
				plat.RegBudget = v
			case "reg_period":
				plat.RegPeriod = v
			}
		}
		edits = append(edits, e)
	}
	return edits, taskmodel.NewTaskSet(plat, tasks), data
}

// fuzzMemBudget gives each of the 16 memo shards 640 B, one Fig. 1
// column or backbone with its bookkeeping (they weigh 300–480 B), and
// the request store 15 KiB, several Fig. 1 requests.
const fuzzMemBudget = 16 * 640 * 5 / 2

// FuzzDelta: delta == fresh under eviction. Fuzzed edit lists are
// chained, each on the key the previous 200 returned, from a Fig. 1
// base on a server whose memo shards hold about one entry each
// (fuzzMemBudget), so the memo evicts on nearly every op while the
// request store still keeps the chain's base. Every 200 delta must
// equal, byte for byte (key and results), the same edits applied by
// direct mutation and answered by analyzeDirect. A 4xx leaves the
// chain where it was; a 5xx or a panic fails.
func FuzzDelta(f *testing.F) {
	deltaSrv := New(Options{MemBudget: fuzzMemBudget}).Handler()
	serve := func(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64] // at most 16 edits
		}
		cur := fixtures.Fig1TaskSet()
		rec := serve(deltaSrv, "/v1/analyze", requestBody(t, cur, paperConfigs))
		if rec.Code != http.StatusOK {
			t.Fatalf("base: %d %s", rec.Code, rec.Body.Bytes())
		}
		key := decodeEnvelope(t, rec.Body.Bytes()).Key
		for len(data) >= 4 {
			var edits []wireEdit
			var edited *taskmodel.TaskSet
			edits, edited, data = fuzzDeltaStep(cur, data)
			body, err := json.Marshal(wireDeltaRequest{BaseKey: key, Edits: edits})
			if err != nil {
				t.Fatal(err)
			}
			rec := serve(deltaSrv, "/v1/analyze/delta", body)
			if rec.Code >= 500 {
				t.Fatalf("delta %s: %d %s", body, rec.Code, rec.Body.Bytes())
			}
			if rec.Code != http.StatusOK {
				continue
			}
			dEnv := decodeDelta(t, rec.Body.Bytes())
			fKey, fResults, err := analyzeDirect(t, requestBody(t, edited, paperConfigs))
			if err != nil {
				t.Fatalf("delta %s answered 200, the edited set: %v", body, err)
			}
			if dEnv.Key != fKey || !bytes.Equal(dEnv.Results, fResults) {
				t.Fatalf("delta %s diverges from the fresh path:\ndelta: %s %s\nfresh: %s %s",
					body, dEnv.Key, dEnv.Results, fKey, fResults)
			}
			cur, key = edited, dEnv.Key
		}
	})
}
