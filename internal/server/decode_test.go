package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cacheset"
	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// twoPassRequest and twoPassTaskSet are the reference the one-pass
// decode must agree with: the envelope with the task set as raw bytes,
// then the task set alone through a reflection decode of plain []int
// index lists, then the same checks — platform, the bitset-memory
// bound, index ranges, TaskSet.Validate, the configurations and
// Config.ValidateFor.
type twoPassRequest struct {
	TaskSet json.RawMessage   `json:"taskset"`
	Configs []core.WireConfig `json:"configs"`
}

type twoPassTaskSet struct {
	Platform taskmodel.Platform `json:"platform"`
	Tasks    []struct {
		Name     string         `json:"name"`
		Core     int            `json:"core"`
		Priority int            `json:"priority"`
		PD       taskmodel.Time `json:"pd"`
		MD       int64          `json:"md"`
		MDr      int64          `json:"mdr"`
		Period   taskmodel.Time `json:"period"`
		Deadline taskmodel.Time `json:"deadline"`
		UCB      []int          `json:"ucb"`
		ECB      []int          `json:"ecb"`
		PCB      []int          `json:"pcb"`
	} `json:"tasks"`
}

func twoPassDecode(body []byte) (*taskmodel.TaskSet, []core.Config, error) {
	var req twoPassRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, err
	}
	if len(req.TaskSet) == 0 {
		return nil, nil, fmt.Errorf("missing taskset")
	}
	var in twoPassTaskSet
	if err := json.NewDecoder(bytes.NewReader(req.TaskSet)).Decode(&in); err != nil {
		return nil, nil, err
	}
	p := in.Platform
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	n := p.Cache.NumSets
	if err := checkSetBytes(n, len(in.Tasks)); err != nil {
		return nil, nil, err
	}
	tasks := make([]*taskmodel.Task, 0, len(in.Tasks))
	for _, tj := range in.Tasks {
		for _, idx := range [][]int{tj.UCB, tj.ECB, tj.PCB} {
			for _, i := range idx {
				if i < 0 || i >= n {
					return nil, nil, fmt.Errorf("index %d out of range", i)
				}
			}
		}
		tasks = append(tasks, &taskmodel.Task{
			Name: tj.Name, Core: tj.Core, Priority: tj.Priority,
			PD: tj.PD, MD: tj.MD, MDr: tj.MDr, Period: tj.Period, Deadline: tj.Deadline,
			UCB: cacheset.FromSorted(n, tj.UCB), ECB: cacheset.FromSorted(n, tj.ECB), PCB: cacheset.FromSorted(n, tj.PCB),
		})
	}
	ts := taskmodel.NewTaskSet(p, tasks)
	if err := ts.Validate(); err != nil {
		return nil, nil, err
	}
	cfgs, err := parseConfigs(req.Configs)
	if err != nil {
		return nil, nil, err
	}
	for _, cfg := range cfgs {
		if err := cfg.ValidateFor(ts.Platform); err != nil {
			return nil, nil, err
		}
	}
	return ts, cfgs, nil
}

// onePassDecode is the handler's decode: decodeAnalyze, then decode.
func onePassDecode(body []byte) (*taskmodel.TaskSet, []core.Config, error) {
	req, err := decodeAnalyze(body)
	if err != nil {
		return nil, nil, err
	}
	return req.decode()
}

// fig1Body is a compact /v1/analyze body for the Fig. 1 set; its tau2
// UCB list renders as `"ucb":[5,6]`, which the seeds rewrite.
func fig1Body(tb testing.TB) string {
	tb.Helper()
	body, err := json.Marshal(wireAnalyzeRequest{
		TaskSet: taskmodel.NewTaskSetJSON(fixtures.Fig1TaskSet()),
		Configs: []core.WireConfig{{Arbiter: "fp", Persistence: true}, {Arbiter: "rr"}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return string(body)
}

// wireDecodeSeeds spell index lists and envelopes every way the two
// paths must agree on.
func wireDecodeSeeds(tb testing.TB) []string {
	valid := fig1Body(tb)
	ucb := func(v string) string { return strings.Replace(valid, `"ucb":[5,6]`, v, 1) }
	taskset := valid[strings.Index(valid, `{"platform"`):strings.Index(valid, `,"configs"`)]
	return []string{
		valid,
		ucb(`"ucb":[null]`), ucb(`"ucb":[5,null,6]`), ucb(`"ucb":null`), ucb(`"ucb":[-1]`), ucb(`"ucb":[-0]`),
		ucb(`"ucb":[1.0]`), ucb(`"ucb":[1e2]`), ucb(`"ucb":[5E0]`),
		ucb(`"ucb":[12345678901234567890]`), ucb(`"ucb":[1234567890123456]`),
		ucb(`"ucb":["5"]`), ucb(`"ucb":[true]`), ucb(`"ucb":{}`),
		ucb("\"ucb\": [ 5 ,\n6\t,\r5 ] "), ucb(`"ucb":[5,5,6,6]`), ucb(`"ucb":[6,5]`), ucb(`"ucb":[]`),
		ucb(`"UCB":[5,6]`), ucb(`"Ucb":[6]`), ucb(`"ucb":[5],"uCB":[6]`), ucb(`"ucb":[99]`),
		`{"taskset":null,"configs":[{"arbiter":"fp"}]}`,
		`{"taskset":[],"configs":[{"arbiter":"fp"}]}`,
		`{"taskset":{},"configs":[{"arbiter":"fp"}]}`,
		`{"taskset":"x","configs":[{"arbiter":"fp"}]}`,
		`{"configs":[{"arbiter":"fp"}]}`,
		`{"taskset":` + taskset + `}`,
		`{"taskset":` + taskset + `,"configs":[{"arbiter":"warp"}]}`,
		// A repeated taskset key: the last value alone counts.
		`{"taskset":` + taskset + `,"taskset":{"tasks":[]},"configs":[{"arbiter":"fp"}]}`,
		`{"taskset":` + taskset + `,"TaskSet":null,"configs":[{"arbiter":"fp"}]}`,
		`{"taskset":{"tasks":[]},"TASKSET":` + taskset + `,"configs":[{"arbiter":"fp"}]}`,
		`{"taskset":` + taskset + `,"taskset":{"tasks":[]},"configs":[{"arbiter":"fp"}]}`,
		"{\"taskset\":" + taskset + ",\"taſkset\":{\"tasks\":[]},\"configs\":[{\"arbiter\":\"fp\"}]}",
		`{not json`, ``, `null`, `[]`,
		// Cache sets past the body limit: rejected before allocation.
		strings.Replace(valid, `"NumSets":16`, `"NumSets":1099511627776`, 1),
	}
}

// checkWireDecode compares the two decodes of body: accept or reject,
// the handler's status on reject, and equal task sets, configurations
// and keys on accept. A body the scanner reads must also fill the
// request exactly as encoding/json does.
func checkWireDecode(t *testing.T, h http.Handler, body string) {
	if scanned, ok := scanAnalyze([]byte(body)); ok {
		var want wireAnalyzeRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("scanner accepted a body encoding/json rejects (%v): %s", err, body)
		}
		if !reflect.DeepEqual(scanned, want) {
			t.Fatalf("scanner read %+v, encoding/json %+v\nbody: %s", scanned, want, body)
		}
	}
	ts, cfgs, err := onePassDecode([]byte(body))
	wantTS, wantCfgs, wantErr := twoPassDecode([]byte(body))
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("one-pass error %v, two-pass error %v\nbody: %s", err, wantErr, body)
	}
	if err != nil {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("rejected body answered %d, want 400: %s\nbody: %s", rec.Code, rec.Body.Bytes(), body)
		}
		return
	}
	if !reflect.DeepEqual(ts, wantTS) || !reflect.DeepEqual(cfgs, wantCfgs) {
		t.Fatalf("one-pass decoded %+v %+v, two-pass %+v %+v\nbody: %s", ts, cfgs, wantTS, wantCfgs, body)
	}
	if k, want := core.CanonicalKey(ts, cfgs), core.CanonicalKey(wantTS, wantCfgs); k != want {
		t.Fatalf("one-pass key %s, two-pass key %s", k, want)
	}
}

// FuzzWireDecode checks the one-pass /v1/analyze decode against the
// two-pass reference: both accept or both reject (and the handler
// answers a reject with 400), and an accepted body yields equal task
// sets, configurations and canonical keys.
func FuzzWireDecode(f *testing.F) {
	for _, s := range wireDecodeSeeds(f) {
		f.Add(s)
	}
	h := New(Options{}).Handler()
	f.Fuzz(func(t *testing.T, body string) {
		checkWireDecode(t, h, body)
	})
}

// scanClass is a body the scanner declines or reads.
type scanClass struct {
	name     string
	body     string
	declines bool
}

// scanClasses are one body per class of input the scanner declines,
// each next to the nearest form it reads. Each is also a committed
// FuzzWireDecode seed under testdata/fuzz/FuzzWireDecode/<name>.
func scanClasses(tb testing.TB) []scanClass {
	valid := fig1Body(tb)
	sub := func(old, new string) string {
		if !strings.Contains(valid, old) {
			tb.Fatalf("fig1Body lacks %s", old)
		}
		return strings.Replace(valid, old, new, 1)
	}
	platform := valid[strings.Index(valid, `{"NumCores"`):strings.Index(valid, `,"tasks"`)]
	tasks := valid[strings.Index(valid, `[{"name"`):strings.Index(valid, `},"configs"`)]
	return []scanClass{
		{"plain", valid, false},
		{"escaped_string", sub(`"tau1"`, `"tau\u0031"`), true},
		{"escaped_key", sub(`"name":"tau1"`, `"n\u0061me":"tau1"`), true},
		{"case_variant_key", sub(`"pd":4`, `"PD":4`), true},
		{"duplicate_scalar_key", sub(`"pd":4`, `"pd":3,"pd":4`), true},
		{"duplicate_platform", sub(`"platform":`, `"platform":{"NumCores":1,"DL2":3},"platform":`), true},
		{"null", sub(`"pcb":[]`, `"pcb":null`), true},
		{"unknown_field", sub(`"name":"tau1"`, `"name":"tau1","comment":"x"`), true},
		{"minus_zero", sub(`"core":0`, `"core":-0`), true},
		{"leading_zero", sub(`"pd":4`, `"pd":04`), true},
		{"fraction", sub(`"pd":4`, `"pd":4.0`), true},
		{"exponent", sub(`"pd":4`, `"pd":4e0`), true},
		{"nineteen_digits", sub(`"period":120,"deadline":120`, `"period":1000000000000000000,"deadline":120`), true},
		{"eighteen_digits", sub(`"period":120,"deadline":120`, `"period":100000000000000000,"deadline":120`), false},
		{"invalid_utf8_name", sub(`"tau1"`, "\"tau\xff1\""), true},
		{"non_ascii_name", sub(`"tau1"`, `"τ₁"`), false},
		{"trailing_bytes", valid + ` x`, true},
		{"trailing_space", valid + " \n", false},
		{"platform_after_tasks", `{"taskset":{"tasks":` + tasks + `,"platform":` + platform + `},"configs":[{"arbiter":"fp"}]}`, true},
		{"empty_tasks", sub(tasks, `[]`), false},
		{"every_config_field", sub(`{"arbiter":"rr"}`, `{"arbiter":"rr","persistence":false,"crpd":"ecb-union","cpro":"cpro-multiset","max_outer_iterations":32}`), false},
		{"empty_configs", sub(`[{"arbiter":"fp","persistence":true},{"arbiter":"rr"}]`, `[]`), false},
		{"empty_index_arrays", sub(`"ucb":[5,6],"ecb":[1,2,3,4,5,6]`, `"ucb":[],"ecb":[]`), false},
	}
}

// TestScannerDeclineClasses: the scanner declines exactly the bodies
// outside its form, every body decodes as the two-pass reference
// does, and the committed seed corpus holds the same bodies.
func TestScannerDeclineClasses(t *testing.T) {
	h := New(Options{}).Handler()
	for _, c := range scanClasses(t) {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := scanAnalyze([]byte(c.body)); ok == c.declines {
				t.Errorf("scanner accepted=%v, want %v\nbody: %s", ok, !c.declines, c.body)
			}
			checkWireDecode(t, h, c.body)
			seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzWireDecode", c.name))
			if want := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", c.body); err != nil || string(seed) != want {
				t.Errorf("seed file: %v\n%s\nwant\n%s", err, seed, want)
			}
		})
	}
}

// TestScannerKeysMatchFields: the scanner's key lists are the JSON
// names of the fields they fill, so no field of either struct sends a
// body to the fallback.
func TestScannerKeysMatchFields(t *testing.T) {
	for _, c := range []struct {
		keys []string
		typ  reflect.Type
	}{
		{envelopeKeys, reflect.TypeOf(wireAnalyzeRequest{})},
		{configKeys, reflect.TypeOf(core.WireConfig{})},
	} {
		var names []string
		for i := 0; i < c.typ.NumField(); i++ {
			name, _, _ := strings.Cut(c.typ.Field(i).Tag.Get("json"), ",")
			names = append(names, name)
		}
		if !reflect.DeepEqual(c.keys, names) {
			t.Errorf("%v: scanner keys %q, fields %q", c.typ, c.keys, names)
		}
	}
}

// TestWireDecodeRepeatedTaskSetKey: a body naming the task set twice is
// decoded as its last value — here the valid set after an empty one —
// whatever the key's spelling.
func TestWireDecodeRepeatedTaskSetKey(t *testing.T) {
	valid := fig1Body(t)
	taskset := valid[strings.Index(valid, `{"platform"`):strings.Index(valid, `,"configs"`)]
	for _, key := range []string{`"taskset"`, `"TaskSet"`, `"TASKSET"`, "\"taſkset\"", `"task\u0073et"`} {
		body := `{"taskset":{"tasks":[{"name":"ghost"}]},` + key + `:` + taskset + `,"configs":[{"arbiter":"fp"}]}`
		ts, _, err := onePassDecode([]byte(body))
		if err != nil {
			t.Errorf("%s: %v", key, err)
			continue
		}
		if !reflect.DeepEqual(ts, fixtures.Fig1TaskSet()) {
			t.Errorf("%s: decoded %+v, want the Fig. 1 set", key, ts)
		}
	}
}

// lazyBody streams n bytes of an endless index list without holding
// them: `{"taskset":{"tasks":[{"ucb":[0,0,0,...`. Read counts what the
// server consumed.
type lazyBody struct {
	n, read int64
}

func (b *lazyBody) Read(p []byte) (int, error) {
	const head = `{"taskset":{"tasks":[{"ucb":[0`
	if b.read >= b.n {
		return 0, io.EOF
	}
	k := 0
	for ; k < len(p) && b.read < b.n; k++ {
		if b.read < int64(len(head)) {
			p[k] = head[b.read]
		} else if b.read%2 == 0 {
			p[k] = '0'
		} else {
			p[k] = ','
		}
		b.read++
	}
	return k, nil
}

// TestOversizedBodyRejected: a body past maxBodyBytes is answered 413
// naming the limit on every endpoint that reads one, before anything
// parses it — no analysis runs and no base is registered. A declared
// Content-Length past the limit is refused without reading the body; a
// streamed one is read no further than the limit.
func TestOversizedBodyRejected(t *testing.T) {
	obs := telemetry.New()
	srv := New(Options{Observer: obs})
	for _, path := range []string{"/v1/analyze", "/v1/analyze/delta"} {
		for _, declared := range []bool{true, false} {
			body := &lazyBody{n: maxBodyBytes + 1}
			req := httptest.NewRequest(http.MethodPost, path, body)
			req.ContentLength = -1
			if declared {
				req.ContentLength = body.n
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "64 MiB") {
				t.Errorf("%s (declared=%v): %d %s, want 413 naming the 64 MiB limit", path, declared, rec.Code, rec.Body.Bytes())
			}
			if declared && body.read != 0 {
				t.Errorf("%s: read %d bytes of a body declared too large", path, body.read)
			}
			if !declared && body.read > maxBodyBytes+1 {
				t.Errorf("%s: read %d bytes, limit %d", path, body.read, maxBodyBytes)
			}
		}
	}
	if n := obs.Metrics.Get(telemetry.CtrServerAnalyses); n != 0 {
		t.Errorf("server.analyses = %d, want 0", n)
	}
	if n := obs.Metrics.Get(telemetry.CtrServerRequests); n != 0 {
		t.Errorf("server.requests = %d, want 0", n)
	}
	if n := srv.store.len(); n != 0 {
		t.Errorf("%d requests stored, want 0", n)
	}
}

// TestOversizedNumSetsRejected: a task set whose cache sets would
// outweigh the body limit is answered 400 naming NumSets before any set
// is allocated.
func TestOversizedNumSetsRejected(t *testing.T) {
	huge := taskmodel.NewTaskSetJSON(fixtures.Fig1TaskSet())
	huge.Platform.Cache.NumSets = 1 << 40
	body, err := json.Marshal(wireAnalyzeRequest{TaskSet: huge, Configs: []core.WireConfig{{Arbiter: "fp"}}})
	if err != nil {
		t.Fatal(err)
	}
	h := New(Options{}).Handler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "NumSets") {
		t.Errorf("/v1/analyze: %d %s, want 400 naming NumSets", rec.Code, rec.Body.Bytes())
	}
	const maxAlloc = 4 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxAlloc {
		t.Errorf("/v1/analyze allocated %d bytes rejecting the task set, want < %d", alloc, maxAlloc)
	}
}

// TestDecodeAndKeyStagesCharged: every parsed request, a cache hit
// included, charges the decode and key stages, in /metrics and in the
// access log; a body that fails to parse charges decode only.
func TestDecodeAndKeyStagesCharged(t *testing.T) {
	obs := telemetry.New()
	var logw syncWriter
	hs := httptest.NewServer(New(Options{Observer: obs, AccessLog: &logw}).Handler())
	defer hs.Close()
	body := requestBody(t, fixtures.Fig1TaskSet(), paperConfigs[:1])
	for i := 0; i < 2; i++ {
		if resp, data := postAnalyze(t, hs.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: status %d\n%s", resp.StatusCode, data)
		}
	}
	if resp, _ := postAnalyze(t, hs.URL, []byte(`{not json`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	waitLines(t, &logw, 3)
	if n := obs.Metrics.Hist(telemetry.HistStageDecode).Snapshot().Count; n != 3 {
		t.Errorf("stage_decode_us count = %d, want 3", n)
	}
	if n := obs.Metrics.Hist(telemetry.HistStageKey).Snapshot().Count; n != 2 {
		t.Errorf("stage_key_us count = %d, want 2", n)
	}
	m := scrapeJSON(t, hs.URL)
	for _, name := range []string{"server.stage_decode_us", "server.stage_key_us"} {
		if _, ok := m.Histograms[name]; !ok {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	resp, err := http.Get(hs.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"server_stage_decode_us_count 3", "server_stage_key_us_count 2"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}
