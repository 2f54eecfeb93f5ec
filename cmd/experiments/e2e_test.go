package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/server"
)

func TestRunFig2aWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code, err := run(context.Background(),
		[]string{"-exp", "fig2a", "-tasksets", "2", "-outdir", dir, "-progress=false", "-metrics"},
		&out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig2a.csv")); err != nil {
		t.Errorf("fig2a.csv not written: %v", err)
	}
	if !strings.Contains(errOut.String(), "analyzer.runs") {
		t.Errorf("-metrics summary missing from stderr:\n%s", errOut.String())
	}
}

// TestRunInterruptedFlushesPartialCSV checks the SIGINT path: a
// canceled context must still chart the partial study, flush it as
// *.partial.csv, and exit 130.
func TestRunInterruptedFlushesPartialCSV(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code, err := run(ctx,
		[]string{"-exp", "fig2a", "-tasksets", "2", "-outdir", dir, "-progress=false"},
		&out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 130 {
		t.Fatalf("exit code = %d, want 130", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig2a.partial.csv")); err != nil {
		t.Errorf("partial CSV not written: %v", err)
	}
	if !strings.Contains(out.String(), "INTERRUPTED") {
		t.Errorf("output does not flag the interruption:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	code, err := run(context.Background(), []string{"-exp", "nope"}, &out, &errOut)
	if err == nil || code != 1 {
		t.Fatalf("code=%d err=%v, want an error with code 1", code, err)
	}
}

// readFile is a tiny helper so equivalence checks read as one line.
func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunShardResumeMergeEquivalence drives the full resilient
// workflow through the CLI: a single-process reference run, two shard
// runs (one interrupted mid-flight and resumed), and a merge of the
// shard checkpoints — whose CSV must equal the reference byte for
// byte.
func TestRunShardResumeMergeEquivalence(t *testing.T) {
	refDir := t.TempDir()
	var out, errOut bytes.Buffer
	if code, err := run(context.Background(),
		[]string{"-exp", "fig2a", "-tasksets", "3", "-outdir", refDir, "-progress=false"},
		&out, &errOut); err != nil || code != 0 {
		t.Fatalf("reference run: code=%d err=%v (stderr: %s)", code, err, errOut.String())
	}
	want := readFile(t, filepath.Join(refDir, "fig2a.csv"))

	ckpt := t.TempDir()
	// Shard 0: interrupt immediately — the canceled context leaves a
	// valid (possibly empty) checkpoint behind.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out.Reset()
	errOut.Reset()
	if code, err := run(ctx,
		[]string{"-exp", "fig2a", "-tasksets", "3", "-shard", "0/2", "-checkpoint", ckpt, "-progress=false"},
		&out, &errOut); err != nil || code != 130 {
		t.Fatalf("interrupted shard 0: code=%d err=%v (stderr: %s)", code, err, errOut.String())
	}
	shard0 := filepath.Join(ckpt, "fig2a.shard0of2.json")
	if _, err := os.Stat(shard0); err != nil {
		t.Fatalf("interrupted shard left no checkpoint: %v", err)
	}

	// Re-running shard 0 without -resume must refuse to clobber it.
	out.Reset()
	errOut.Reset()
	if code, err := run(context.Background(),
		[]string{"-exp", "fig2a", "-tasksets", "3", "-shard", "0/2", "-checkpoint", ckpt, "-progress=false"},
		&out, &errOut); err == nil || code != 1 {
		t.Fatalf("clobbering an existing checkpoint: code=%d err=%v, want a refusal", code, err)
	}

	// Resume shard 0 to completion, and run shard 1 fresh.
	for _, args := range [][]string{
		{"-exp", "fig2a", "-tasksets", "3", "-shard", "0/2", "-checkpoint", ckpt, "-resume", "-progress=false"},
		{"-exp", "fig2a", "-tasksets", "3", "-shard", "1/2", "-checkpoint", ckpt, "-progress=false"},
	} {
		out.Reset()
		errOut.Reset()
		if code, err := run(context.Background(), args, &out, &errOut); err != nil || code != 0 {
			t.Fatalf("run %v: code=%d err=%v (stderr: %s)", args, code, err, errOut.String())
		}
	}

	mergeDir := t.TempDir()
	out.Reset()
	errOut.Reset()
	code, err := run(context.Background(),
		[]string{"merge", "-outdir", mergeDir, shard0, filepath.Join(ckpt, "fig2a.shard1of2.json")},
		&out, &errOut)
	if err != nil || code != 0 {
		t.Fatalf("merge: code=%d err=%v (stderr: %s)", code, err, errOut.String())
	}
	if got := readFile(t, filepath.Join(mergeDir, "fig2a.csv")); got != want {
		t.Errorf("merged CSV differs from the single-process run:\n--- merged ---\n%s--- single ---\n%s", got, want)
	}
}

// cancelOnProgress is a stderr that cancels the run at its first
// progress line, i.e. right after the first analyzed task set.
type cancelOnProgress struct{ cancel context.CancelFunc }

func (c cancelOnProgress) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("analyzed")) {
		c.cancel()
	}
	return len(p), nil
}

// TestRunExtensionShardResumeMerge: the extension studies run on the
// same sweep runtime as the figures, so extgen split into two shards
// and merged, and extgen interrupted after its first task set and
// resumed, must both reproduce the single-process CSV byte for byte.
func TestRunExtensionShardResumeMerge(t *testing.T) {
	base := []string{"-exp", "extgen", "-tasksets", "3"}
	runOK := func(ctx context.Context, stderr io.Writer, args ...string) int {
		t.Helper()
		var out bytes.Buffer
		code, err := run(ctx, append(append([]string(nil), base...), args...), &out, stderr)
		if err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		return code
	}
	refDir := t.TempDir()
	if code := runOK(context.Background(), io.Discard, "-outdir", refDir, "-progress=false"); code != 0 {
		t.Fatalf("reference run: code=%d", code)
	}
	want := readFile(t, filepath.Join(refDir, "extgen.csv"))

	ckpt := t.TempDir()
	for _, sh := range []string{"0/2", "1/2"} {
		if code := runOK(context.Background(), io.Discard, "-shard", sh, "-checkpoint", ckpt, "-progress=false"); code != 0 {
			t.Fatalf("shard %s: code=%d", sh, code)
		}
	}
	mergeDir := t.TempDir()
	var out, errOut bytes.Buffer
	if code, err := run(context.Background(), []string{"merge", "-outdir", mergeDir,
		filepath.Join(ckpt, "extgen.shard0of2.json"), filepath.Join(ckpt, "extgen.shard1of2.json")},
		&out, &errOut); err != nil || code != 0 {
		t.Fatalf("merge: code=%d err=%v (stderr: %s)", code, err, errOut.String())
	}
	if got := readFile(t, filepath.Join(mergeDir, "extgen.csv")); got != want {
		t.Errorf("merged extgen CSV differs from the single-process run:\n--- merged ---\n%s--- single ---\n%s", got, want)
	}

	ckpt = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if code := runOK(ctx, cancelOnProgress{cancel}, "-workers", "1", "-checkpoint", ckpt); code != 130 {
		t.Fatalf("interrupted run: code=%d, want 130", code)
	}
	log, err := checkpoint.Open(filepath.Join(ckpt, "extgen.json"))
	if err != nil {
		t.Fatal(err)
	}
	// 2 period modes x 20 utilizations x 3 sets.
	if n := log.Len(); n == 0 || n >= 120 {
		t.Fatalf("interrupted run checkpointed %d of 120 jobs, want a strict partial", n)
	}
	resDir := t.TempDir()
	if code := runOK(context.Background(), io.Discard, "-checkpoint", ckpt, "-resume", "-outdir", resDir, "-progress=false"); code != 0 {
		t.Fatalf("resumed run: code=%d", code)
	}
	if got := readFile(t, filepath.Join(resDir, "extgen.csv")); got != want {
		t.Errorf("resumed extgen CSV differs from the single-process run:\n--- resumed ---\n%s--- single ---\n%s", got, want)
	}
}

// swapHandler lets fleet listeners exist (URLs known) before the
// servers that need the full member list are built.
// It counts the requests it serves.
type swapHandler struct {
	h      atomic.Value
	served atomic.Int64
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(h) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.served.Add(1)
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// TestRunClusterEquivalence pins the -cluster acceptance criterion:
// -cluster only swaps the engine under the ordinary sweep, so a sweep
// served by a 2-node buscond fleet emits a CSV byte-identical to the
// single-process local run — with no checkpoint, checkpointed and then
// resumed, and split by -shard and merged.
func TestRunClusterEquivalence(t *testing.T) {
	refDir := t.TempDir()
	var out, errOut bytes.Buffer
	if code, err := run(context.Background(),
		[]string{"-exp", "fig2a", "-tasksets", "2", "-outdir", refDir, "-progress=false"},
		&out, &errOut); err != nil || code != 0 {
		t.Fatalf("reference run: code=%d err=%v (stderr: %s)", code, err, errOut.String())
	}
	want := readFile(t, filepath.Join(refDir, "fig2a.csv"))

	const n = 2
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		hs := httptest.NewServer(swaps[i])
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	for i := range swaps {
		ring, err := cluster.NewRing(urls[i], urls, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		swaps[i].set(server.New(server.Options{Ring: ring}).Handler())
	}
	served := func() (total int64) {
		for _, sw := range swaps {
			total += sw.served.Load()
		}
		return total
	}
	// runCluster runs the fleet sweep with args and returns its CSV
	// (from outdir, when given).
	runCluster := func(outdir string, args ...string) string {
		t.Helper()
		args = append([]string{"-exp", "fig2a", "-tasksets", "2", "-progress=false",
			"-cluster", strings.Join(urls, ",")}, args...)
		if outdir != "" {
			args = append(args, "-outdir", outdir)
		}
		out.Reset()
		errOut.Reset()
		if code, err := run(context.Background(), args, &out, &errOut); err != nil || code != 0 {
			t.Fatalf("cluster run %v: code=%d err=%v (stderr: %s)", args, code, err, errOut.String())
		}
		if outdir == "" {
			return ""
		}
		return readFile(t, filepath.Join(outdir, "fig2a.csv"))
	}
	check := func(how, got string) {
		t.Helper()
		if got != want {
			t.Errorf("cluster CSV (%s) differs from the single-process run:\n--- cluster ---\n%s--- single ---\n%s", how, got, want)
		}
	}

	check("no checkpoint", runCluster(t.TempDir()))
	for i, sw := range swaps {
		if sw.served.Load() == 0 {
			t.Errorf("node %d served no request", i)
		}
	}

	ckpt := t.TempDir()
	check("checkpointed", runCluster(t.TempDir(), "-checkpoint", ckpt))
	before := served()
	check("resumed", runCluster(t.TempDir(), "-checkpoint", ckpt, "-resume"))
	if d := served() - before; d != 0 {
		t.Errorf("resuming a complete checkpoint sent %d requests to the fleet, want 0", d)
	}
	entries, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "fig2a.json" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("checkpoint dir holds %v, want only fig2a.json", names)
	}

	shards := t.TempDir()
	runCluster("", "-shard", "0/2", "-checkpoint", shards)
	runCluster("", "-shard", "1/2", "-checkpoint", shards)
	mergeDir := t.TempDir()
	out.Reset()
	errOut.Reset()
	if code, err := run(context.Background(), []string{"merge", "-outdir", mergeDir,
		filepath.Join(shards, "fig2a.shard0of2.json"), filepath.Join(shards, "fig2a.shard1of2.json")},
		&out, &errOut); err != nil || code != 0 {
		t.Fatalf("merge: code=%d err=%v (stderr: %s)", code, err, errOut.String())
	}
	check("sharded and merged", readFile(t, filepath.Join(mergeDir, "fig2a.csv")))
}

// TestRunClusterFlagValidation: an empty or malformed -cluster member
// list is a flag error.
func TestRunClusterFlagValidation(t *testing.T) {
	for _, list := range []string{",", " , ", "ftp://127.0.0.1:1"} {
		var out, errOut bytes.Buffer
		if code, err := run(context.Background(),
			[]string{"-exp", "fig2a", "-cluster", list}, &out, &errOut); err == nil || code != 1 {
			t.Errorf("-cluster %q: code=%d err=%v, want an error", list, code, err)
		}
	}
}

// TestRunShardFlagValidation: -shard without -checkpoint and a
// non-sweep study under -shard are both flag errors.
func TestRunShardFlagValidation(t *testing.T) {
	var out, errOut bytes.Buffer
	if code, err := run(context.Background(),
		[]string{"-exp", "fig2a", "-shard", "0/2"}, &out, &errOut); err == nil || code != 1 {
		t.Errorf("-shard without -checkpoint: code=%d err=%v, want an error", code, err)
	}
	if code, err := run(context.Background(),
		[]string{"-exp", "exthier", "-shard", "0/2", "-checkpoint", t.TempDir()},
		&out, &errOut); err == nil || code != 1 {
		t.Errorf("non-sweep study under -shard: code=%d err=%v, want an error", code, err)
	}
	if code, err := run(context.Background(),
		[]string{"-exp", "fig2a", "-shard", "2/2", "-checkpoint", t.TempDir()},
		&out, &errOut); err == nil || code != 1 {
		t.Errorf("out-of-range shard: code=%d err=%v, want an error", code, err)
	}
}

// TestRunMergeRejectsIncompleteSet: merging only one of two shards
// must fail loudly rather than emit a half-study CSV.
func TestRunMergeRejectsIncompleteSet(t *testing.T) {
	ckpt := t.TempDir()
	var out, errOut bytes.Buffer
	if code, err := run(context.Background(),
		[]string{"-exp", "fig2a", "-tasksets", "2", "-shard", "0/2", "-checkpoint", ckpt, "-progress=false"},
		&out, &errOut); err != nil || code != 0 {
		t.Fatalf("shard run: code=%d err=%v", code, err)
	}
	out.Reset()
	errOut.Reset()
	code, err := run(context.Background(),
		[]string{"merge", filepath.Join(ckpt, "fig2a.shard0of2.json")}, &out, &errOut)
	if err == nil || code != 1 {
		t.Fatalf("merge of an incomplete shard set: code=%d err=%v, want an error", code, err)
	}
	if !strings.Contains(err.Error(), "want 2") {
		t.Errorf("error %q does not name the expected shard count", err)
	}
}
