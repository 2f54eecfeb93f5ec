package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

// Serve-path microbenchmarks on a paper-default /v1/analyze body (4
// cores × 8 tasks over a 256-set cache under FP with persistence, the
// shape of e2ebench's serve bases): about 33 KB, most of it cache-set
// index lists. Run with:
//
//	go test ./internal/server -run '^$' -bench . -benchmem

// paperBody renders one generated paper-default task set as a
// /v1/analyze body.
func paperBody(tb testing.TB) []byte {
	tb.Helper()
	pool, err := taskgen.PoolFromSuite(taskgen.DefaultConfig().Platform.Cache)
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := taskgen.Generate(taskgen.DefaultConfig(), pool, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	var tsBuf bytes.Buffer
	if err := ts.WriteJSON(&tsBuf); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"taskset": json.RawMessage(tsBuf.Bytes()),
		"configs": []core.WireConfig{{Arbiter: "fp", Persistence: true}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// benchOp times op over b.N iterations, allocations reported, behind
// one untimed call, so a -benchtime 1x run times the steady state.
func benchOp(b *testing.B, op func() error) {
	b.Helper()
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode is what every request pays before the cache can
// answer it: the envelope and task-set parse, validation and the
// canonical key.
func BenchmarkWireDecode(b *testing.B) { benchWireDecode(b, paperBody(b)) }

// BenchmarkWireDecodeEditBase is BenchmarkWireDecode on the edit-shape
// base body (editBaseBody), the largest body e2ebench posts.
func BenchmarkWireDecodeEditBase(b *testing.B) { benchWireDecode(b, editBaseBody(b)) }

func benchWireDecode(b *testing.B, body []byte) {
	b.SetBytes(int64(len(body)))
	benchOp(b, func() error {
		req, err := decodeAnalyze(body)
		if err != nil {
			return err
		}
		ts, cfgs, err := req.decode()
		if err != nil {
			return err
		}
		keySink = core.CanonicalKey(ts, cfgs)
		return nil
	})
}

// keySink keeps the compiler from dropping a benchmarked key.
var keySink string

// BenchmarkHandlerDup is a duplicate /v1/analyze through the full
// handler, middleware included, answered from the result cache; the
// untimed first call does the one analysis.
func BenchmarkHandlerDup(b *testing.B) {
	body := paperBody(b)
	h := New(Options{}).Handler()
	benchOp(b, func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return nil
	})
}

// editShapeSet is e2ebench's edit-workload base shape: 40 tasks per
// core on the paper's 4 cores over an 8192-set cache at utilization
// 0.3.
func editShapeSet(tb testing.TB) *taskmodel.TaskSet {
	tb.Helper()
	cfg := taskgen.DefaultConfig()
	cfg.TasksPerCore = 40
	cfg.CoreUtilization = 0.3
	cfg.Platform.Cache.NumSets = 8192
	pool, err := taskgen.PoolFromSuite(cfg.Platform.Cache)
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(7)))
	if err != nil {
		tb.Fatal(err)
	}
	return ts
}

// editBaseBody is the edit-shape set under the six variants as a
// /v1/analyze body, about 235 KB.
func editBaseBody(tb testing.TB) []byte {
	tb.Helper()
	var tsBuf bytes.Buffer
	if err := editShapeSet(tb).WriteJSON(&tsBuf); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"taskset": json.RawMessage(tsBuf.Bytes()), "configs": sixVariants})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// sixVariants are the paper's six analysis variants on the wire.
var sixVariants = []core.WireConfig{
	{Arbiter: "fp"}, {Arbiter: "fp", Persistence: true},
	{Arbiter: "rr"}, {Arbiter: "rr", Persistence: true},
	{Arbiter: "tdma"}, {Arbiter: "tdma", Persistence: true},
}

// BenchmarkAppendResults encodes the edit-shape set's six-variant
// result, the marshal stage of every fresh analysis, into a reused
// buffer.
func BenchmarkAppendResults(b *testing.B) {
	ts := editShapeSet(b)
	var cfgs []core.Config
	for _, wc := range sixVariants {
		cfg, err := wc.Config()
		if err != nil {
			b.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	rs, err := core.AnalyzeAll(ts, cfgs)
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	benchOp(b, func() error {
		buf = appendResults(buf[:0], rs)
		return nil
	})
	b.SetBytes(int64(len(buf)))
}

// BenchmarkHandlerDelta is one never-seen pd edit of the edit-shape
// set through the full handler as /v1/analyze/delta, chained on the
// previous edit's key, with the engine memo warm from the base
// analysis and earlier edits: the steady state of a design-space
// search.
func BenchmarkHandlerDelta(b *testing.B) {
	ts := editShapeSet(b)
	body := editBaseBody(b)
	h := New(Options{}).Handler()
	post := func(path string, body []byte) (string, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return "", fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		var env struct {
			Key string `json:"key"`
		}
		return env.Key, json.Unmarshal(rec.Body.Bytes(), &env)
	}
	key, err := post("/v1/analyze", body)
	if err != nil {
		b.Fatal(err)
	}
	// Edit k lowers task k mod n's PD by k/n+1 cycles below the base,
	// so no edit repeats an earlier one.
	k := 0
	benchOp(b, func() error {
		t := ts.Tasks[k%len(ts.Tasks)]
		pd := t.PD - taskmodel.Time(k/len(ts.Tasks)+1)
		k++
		dbody, err := json.Marshal(wireDeltaRequest{BaseKey: key, Edits: []wireEdit{{
			Priority: &t.Priority, Field: "pd", Value: json.RawMessage(strconv.FormatInt(pd, 10)),
		}}})
		if err != nil {
			return err
		}
		key, err = post("/v1/analyze/delta", dbody)
		return err
	})
}
