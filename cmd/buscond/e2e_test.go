package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixtures"
)

// TestMain lets the test binary double as the daemon: with the helper
// env set it runs main() verbatim, so e2e tests can exercise the real
// signal path (SIGTERM → drain → exit 0) against a real process.
func TestMain(m *testing.M) {
	if os.Getenv("BUSCOND_E2E_HELPER") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// syncBuffer lets the test poll daemon output while run() writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRe = regexp.MustCompile(`listening on (http://[^\s]+)`)

// analyzeBody marshals the Fig. 1 example as a /v1/analyze request.
func analyzeBody(t *testing.T) []byte {
	t.Helper()
	var tsBuf bytes.Buffer
	if err := fixtures.Fig1TaskSet().WriteJSON(&tsBuf); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"taskset": json.RawMessage(tsBuf.Bytes()),
		"configs": []map[string]any{
			{"arbiter": "fp", "persistence": true},
			{"arbiter": "rr", "persistence": true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRunServeCacheAndDrain drives the daemon through run(): serve an
// analysis byte-identical to the direct engine call, answer the
// re-POST from the cache, then drain on context cancel and exit 0.
func TestRunServeCacheAndDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut syncBuffer
	done := make(chan struct{})
	var code int
	var runErr error
	go func() {
		defer close(done)
		code, runErr = run(ctx, []string{"-addr", "127.0.0.1:0", "-stats-every", "50ms"}, &out, &errOut)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address:\n%s\n%s", out.String(), errOut.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	direct, err := core.AnalyzeBatchOpts([]core.BatchRequest{{
		TS: fixtures.Fig1TaskSet(),
		Cfgs: []core.Config{
			{Arbiter: core.FP, Persistence: true},
			{Arbiter: core.RR, Persistence: true},
		},
	}}, core.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct[0])

	post := func() (bool, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(analyzeBody(t)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d\n%s", resp.StatusCode, data)
		}
		var env struct {
			Cached  bool            `json:"cached"`
			Results json.RawMessage `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return env.Cached, env.Results
	}

	cached1, res1 := post()
	if cached1 {
		t.Error("first request reported cached")
	}
	if !bytes.Equal(res1, want) {
		t.Errorf("served results differ from direct AnalyzeBatchOpts:\nserver: %s\ndirect: %s", res1, want)
	}
	cached2, res2 := post()
	if !cached2 {
		t.Error("re-POST missed the cache")
	}
	if !bytes.Equal(res2, res1) {
		t.Error("cached bytes differ from the first response")
	}

	hr, err := http.Get(base + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v (status %d)", err, hr.StatusCode)
	}
	hr.Body.Close()

	// The default JSON access log on stdout carries both requests'
	// verdicts (the line lands after the response, so poll), and the
	// rolling stats loop reports request rates on stderr.
	for _, want := range []string{`"verdict":"fresh"`, `"verdict":"cached"`} {
		for !bytes.Contains([]byte(out.String()), []byte(want)) {
			if time.Now().After(deadline) {
				t.Fatalf("access log missing %s:\n%s", want, out.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for !bytes.Contains([]byte(errOut.String()), []byte("req/s")) {
		if time.Now().After(deadline) {
			t.Fatalf("stats line never appeared on stderr:\n%s", errOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after cancel")
	}
	if runErr != nil || code != 0 {
		t.Fatalf("run: code=%d err=%v", code, runErr)
	}
	if !bytes.Contains([]byte(out.String()), []byte("drained")) {
		t.Errorf("output missing drain notice:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code, err := run(context.Background(), []string{"-addr", "not-an-address"}, &out, &errOut); err == nil || code != 1 {
		t.Errorf("bad address: code=%d err=%v, want a failure", code, err)
	}
	if code, err := run(context.Background(), []string{"-no-such-flag"}, &out, &errOut); err == nil || code != 1 {
		t.Errorf("unknown flag: code=%d err=%v, want a failure", code, err)
	}
	if code, err := run(context.Background(), []string{"-log-format", "xml"}, &out, &errOut); err == nil || code != 1 {
		t.Errorf("bad log format: code=%d err=%v, want a failure", code, err)
	}
	if code, err := run(context.Background(), []string{"-self", "127.0.0.1:1"}, &out, &errOut); err == nil || code != 1 {
		t.Errorf("-self without -peers: code=%d err=%v, want a failure", code, err)
	}
	if code, err := run(context.Background(), []string{"-peers", "ftp://127.0.0.1:1"}, &out, &errOut); err == nil || code != 1 {
		t.Errorf("bad -peers scheme: code=%d err=%v, want a failure", code, err)
	}
}

// TestMemBudgetFlag pins what -mem-budget accepts: a byte count with
// an optional binary unit, negative to disable the stores.
func TestMemBudgetFlag(t *testing.T) {
	for in, want := range map[string]int64{
		"0": 0, "4194304": 4 << 20, "512B": 512, "64KiB": 64 << 10,
		"4MiB": 4 << 20, "2GiB": 2 << 30, "-1": -1, "-1MiB": -1 << 20,
	} {
		var b byteSize
		if err := b.Set(in); err != nil || int64(b) != want {
			t.Errorf("Set(%q) = %d, %v; want %d", in, int64(b), err, want)
		}
	}
	for _, in := range []string{"", "MiB", "4 MiB", "4MB", "4mib", "1.5GiB", "9223372036854775807KiB"} {
		var b byteSize
		if err := b.Set(in); err == nil {
			t.Errorf("Set(%q) = %d, want an error", in, int64(b))
		}
	}
}

// TestRunFleetMemberAnnouncement wires the fleet flags end to end: a
// single-member ring (self is auto-added to -peers) must announce
// itself on stdout and still serve analyses — ownership of every key
// is local, so routing is a no-op.
func TestRunFleetMemberAnnouncement(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut syncBuffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		code, err := run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-peers", "127.0.0.1:7421", "-self", "127.0.0.1:7421",
		}, &out, &errOut)
		if code != 0 || err != nil {
			t.Errorf("run: code=%d err=%v", code, err)
		}
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address:\n%s\n%s", out.String(), errOut.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if want := "fleet member http://127.0.0.1:7421 of 1 nodes"; !bytes.Contains([]byte(out.String()), []byte(want)) {
		t.Errorf("stdout missing %q:\n%s", want, out.String())
	}
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(analyzeBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after cancel")
	}
}

// TestAccessLogFileAndTrace: -access-log writes text-format lines to a
// file, and -trace exports a Chrome trace with request spans on exit.
func TestAccessLogFileAndTrace(t *testing.T) {
	dir := t.TempDir()
	logPath := dir + "/access.log"
	tracePath := dir + "/trace.json"

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut syncBuffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		code, err := run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-access-log", logPath, "-log-format", "text",
			"-trace", tracePath,
		}, &out, &errOut)
		if code != 0 || err != nil {
			t.Errorf("run: code=%d err=%v", code, err)
		}
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address:\n%s\n%s", out.String(), errOut.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(analyzeBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after cancel")
	}

	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"verdict=fresh", "path=/v1/analyze", "stage.analyze_us="} {
		if !bytes.Contains(logData, []byte(want)) {
			t.Errorf("access-log file missing %q:\n%s", want, logData)
		}
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Events []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &trace); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	var sawRequest bool
	for _, e := range trace.Events {
		if e.Name == "request /v1/analyze" {
			sawRequest = true
		}
	}
	if !sawRequest {
		t.Errorf("trace missing the request span (%d events)", len(trace.Events))
	}
}

// TestSIGTERMDrainsAndExitsZero pins the acceptance criterion against
// a real process: SIGTERM must drain the daemon and exit 0.
func TestSIGTERMDrainsAndExitsZero(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGTERM on windows")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "BUSCOND_E2E_HELPER=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
			base = m[1]
			break
		}
	}
	if base == "" {
		t.Fatalf("daemon never announced its address (scan err: %v)", sc.Err())
	}

	// One real request before the signal, so the drain path has served
	// traffic behind it.
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(analyzeBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(stdout)
	waitErr := cmd.Wait()
	if waitErr != nil {
		t.Fatalf("daemon exited non-zero after SIGTERM: %v", waitErr)
	}
	all := fmt.Sprintf("%s\n%s", "", rest)
	if !bytes.Contains([]byte(all), []byte("drained")) {
		t.Errorf("drain notice missing from output:\n%s", all)
	}
}
