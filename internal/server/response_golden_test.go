package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/taskmodel"
)

var updateResponses = flag.Bool("update", false, "rewrite testdata/responses.golden")

// goldenNames rename the Fig. 1 tasks so that every escaping rule of
// the JSON encoder shows in a response: HTML characters, a quote, the
// line and paragraph separators and letters outside ASCII.
var goldenNames = []string{"τ1 <bus&mem>", "Zürich \"hot\" path", "line\u2028para\u2029ÆØÅ"}

// goldenTaskSet is the Fig. 1 set under goldenNames with d_mem raised
// to 2, at which some arbiters still converge and others abort on a
// deadline miss, so both complete results and mid-iteration lower
// bounds (Complete false, Verified false) are pinned.
func goldenTaskSet() *taskmodel.TaskSet {
	ts := fixtures.Fig1TaskSet()
	ts.Platform.DMem = 2
	for i, t := range ts.Tasks {
		t.Name = goldenNames[i]
	}
	return ts
}

var goldenConfigs = []core.WireConfig{
	{Arbiter: "fp", Persistence: true},
	{Arbiter: "fp"},
	{Arbiter: "rr", Persistence: true, CPRO: "multiset"},
	{Arbiter: "tdma", Persistence: true},
	{Arbiter: "tdma"},
	{Arbiter: "perfect"},
}

// goldenPost posts body to url+path and returns the response body,
// failing on any status but 200.
func goldenPost(t *testing.T, url, path string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d\n%s", path, resp.StatusCode, data)
	}
	return data
}

// TestResponseGolden pins the full bytes of every success envelope:
// /v1/analyze fresh and cached, /v1/analyze/delta and a cache hit
// served from bytes a fleet edge kept from its peer.
// Regenerate deliberately with:
//
//	go test ./internal/server -run TestResponseGolden -update
func TestResponseGolden(t *testing.T) {
	body := requestBody(t, goldenTaskSet(), goldenConfigs)
	var got bytes.Buffer
	record := func(name string, data []byte) {
		got.WriteString("# " + name + "\n")
		got.Write(data)
	}

	hs := httptest.NewServer(New(Options{}).Handler())
	defer hs.Close()
	fresh := goldenPost(t, hs.URL, "/v1/analyze", body)
	record("analyze fresh", fresh)
	record("analyze cached", goldenPost(t, hs.URL, "/v1/analyze", body))

	env := decodeEnvelope(t, fresh)
	dbody, err := json.Marshal(wireDeltaRequest{
		BaseKey: env.Key,
		Edits:   []wireEdit{{Task: goldenNames[1], Field: "pd", Value: json.RawMessage("20")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	record("delta", goldenPost(t, hs.URL, "/v1/analyze/delta", dbody))

	// Two nodes: post to the one that does not own the key, twice. The
	// second answer comes from the bytes the edge kept from the owner.
	f := newFleet(t, 2, nil)
	edge := 1 - f.ownerIndex(t, env.Key)
	goldenPost(t, f.urls[edge], "/v1/analyze", body)
	record("edge fill cache hit", goldenPost(t, f.urls[edge], "/v1/analyze", body))

	path := filepath.Join("testdata", "responses.golden")
	if *updateResponses {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("response bytes differ from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("response bytes differ from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
