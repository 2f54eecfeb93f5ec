package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgen"
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
func BenchmarkWireDecode(b *testing.B) {
	body := paperBody(b)
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
