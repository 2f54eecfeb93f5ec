package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: Some CPU @ 2.00GHz
BenchmarkAnalyzerFP/base-8         	    5000	    244123 ns/op	   98432 B/op	    1019 allocs/op
BenchmarkAnalyzerFP/persist-8      	    3000	    406000 ns/op	  120000 B/op	    1500 allocs/op
BenchmarkNoMem-8                   	 1000000	      1042 ns/op
PASS
ok  	repro/internal/core	12.3s
--- BENCH: some chatter
Benchmark 12 not-a-line
`
	got, err := parseBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	b := got[0]
	if b.Name != "BenchmarkAnalyzerFP/base-8" || b.Iterations != 5000 ||
		b.NsPerOp != 244123 || b.BytesPerOp != 98432 || b.AllocsPerOp != 1019 {
		t.Errorf("first benchmark parsed wrong: %+v", b)
	}
	if got[2].Name != "BenchmarkNoMem-8" || got[2].NsPerOp != 1042 ||
		got[2].BytesPerOp != 0 || got[2].AllocsPerOp != 0 {
		t.Errorf("no-benchmem line parsed wrong: %+v", got[2])
	}
}

func TestParseBenchEmpty(t *testing.T) {
	got, err := parseBench(strings.NewReader("PASS\nok\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %d benchmarks from non-bench output, want 0", len(got))
	}
}

func report(benches ...Benchmark) *Report {
	return &Report{Benchmarks: benches}
}

func TestCompareNoRegression(t *testing.T) {
	old := report(
		Benchmark{Name: "BenchmarkA-8", NsPerOp: 100, AllocsPerOp: 3},
		Benchmark{Name: "BenchmarkB-8", NsPerOp: 200},
	)
	cur := report(
		Benchmark{Name: "BenchmarkA-8", NsPerOp: 105, AllocsPerOp: 3}, // +5%, under threshold
		Benchmark{Name: "BenchmarkB-8", NsPerOp: 150},                 // faster
	)
	var buf bytes.Buffer
	n, err := compare(old, cur, 10, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("regressions = %d, want 0:\n%s", n, buf.String())
	}
}

func TestCompareFlagsSlowdownAndAllocs(t *testing.T) {
	old := report(
		Benchmark{Name: "BenchmarkA-8", NsPerOp: 100},
		Benchmark{Name: "BenchmarkZeroAlloc-8", NsPerOp: 50, AllocsPerOp: 0},
	)
	cur := report(
		Benchmark{Name: "BenchmarkA-8", NsPerOp: 120},                        // +20% > 10%
		Benchmark{Name: "BenchmarkZeroAlloc-8", NsPerOp: 50, AllocsPerOp: 2}, // allocs appeared
		Benchmark{Name: "BenchmarkNew-8", NsPerOp: 999},                      // no baseline: informational
	)
	var buf bytes.Buffer
	n, err := compare(old, cur, 10, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("regressions = %d, want 2:\n%s", n, buf.String())
	}
	for _, want := range []string{"REGRESSION", "ALLOC REGRESSION", "new"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table missing %q:\n%s", want, buf.String())
		}
	}
}

func TestCompareBestOfN(t *testing.T) {
	// -count runs repeat each name; the fastest time wins, but an
	// allocation appearing in any run still counts.
	old := report(
		Benchmark{Name: "BenchmarkA-8", NsPerOp: 100},
		Benchmark{Name: "BenchmarkA-8", NsPerOp: 90},
		Benchmark{Name: "BenchmarkA-8", NsPerOp: 110},
	)
	cur := report(
		Benchmark{Name: "BenchmarkA-8", NsPerOp: 95, AllocsPerOp: 0},
		Benchmark{Name: "BenchmarkA-8", NsPerOp: 91, AllocsPerOp: 1},
	)
	var buf bytes.Buffer
	n, err := compare(old, cur, 10, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// 90 -> 91 is ~1%, fine; the stray alloc is the one regression.
	if n != 1 {
		t.Errorf("regressions = %d, want 1 (alloc):\n%s", n, buf.String())
	}
	if strings.Count(buf.String(), "BenchmarkA") != 1 {
		t.Errorf("repeated runs not folded:\n%s", buf.String())
	}
}

// TestCompareAcrossGomaxprocs: the -<GOMAXPROCS> name suffix differs
// between recording machines (an 8-way laptop vs a 4-way CI runner)
// and must not make the reports disjoint. Names whose final dash
// segment is not purely numeric are left alone.
func TestCompareAcrossGomaxprocs(t *testing.T) {
	old := report(Benchmark{Name: "BenchmarkA/sets8192-8", NsPerOp: 100})
	cur := report(Benchmark{Name: "BenchmarkA/sets8192-4", NsPerOp: 104})
	var buf bytes.Buffer
	n, err := compare(old, cur, 10, &buf)
	if err != nil {
		t.Fatalf("cross-GOMAXPROCS reports treated as disjoint: %v", err)
	}
	if n != 0 {
		t.Errorf("regressions = %d, want 0:\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), "BenchmarkA/sets8192 ") ||
		strings.Contains(buf.String(), "sets8192-") {
		t.Errorf("names not normalized in table:\n%s", buf.String())
	}
	for _, name := range []string{"Benchmark-suffix-", "Benchmark-"} {
		if got := stripProcsSuffix(name); got != name {
			t.Errorf("stripProcsSuffix(%q) = %q, want unchanged", name, got)
		}
	}
	if got := stripProcsSuffix("BenchmarkA-16"); got != "BenchmarkA" {
		t.Errorf("stripProcsSuffix(BenchmarkA-16) = %q, want BenchmarkA", got)
	}
}

func TestCompareDisjointReports(t *testing.T) {
	var buf bytes.Buffer
	if _, err := compare(report(Benchmark{Name: "A"}), report(Benchmark{Name: "B"}), 10, &buf); err == nil {
		t.Error("disjoint reports accepted")
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *Report) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", report(Benchmark{Name: "BenchmarkA-8", NsPerOp: 100}))
	same := write("same.json", report(Benchmark{Name: "BenchmarkA-8", NsPerOp: 101}))
	slow := write("slow.json", report(Benchmark{Name: "BenchmarkA-8", NsPerOp: 200}))

	var out, errOut bytes.Buffer
	if code, err := runCompare([]string{old, same}, &out, &errOut); code != 0 || err != nil {
		t.Errorf("identical-ish reports: code=%d err=%v", code, err)
	}
	if code, err := runCompare([]string{old, slow}, &out, &errOut); code != 2 || err == nil {
		t.Errorf("2x slowdown: code=%d err=%v, want 2 with error", code, err)
	}
	// Tightened threshold turns the 1% drift into a failure.
	if code, _ := runCompare([]string{"-threshold", "0.5", old, same}, &out, &errOut); code != 2 {
		t.Errorf("threshold 0.5%%: code=%d, want 2", code)
	}
	if code, _ := runCompare([]string{old}, &out, &errOut); code != 1 {
		t.Errorf("missing arg: code=%d, want 1", code)
	}
	if code, _ := runCompare([]string{old, filepath.Join(dir, "absent.json")}, &out, &errOut); code != 1 {
		t.Errorf("absent file: code=%d, want 1", code)
	}
}

// TestHelperBench is not a real test: re-executed as a fake `go test`
// process (see fakeBench), it prints one completed benchmark line and
// then fails like a broken package would.
func TestHelperBench(t *testing.T) {
	if os.Getenv("BENCHJSON_HELPER") == "" {
		return
	}
	fmt.Println("BenchmarkSalvaged-8   \t 100 \t 123 ns/op \t 0 B/op \t 0 allocs/op")
	if os.Getenv("BENCHJSON_HELPER") == "fail" {
		fmt.Println("--- FAIL: TestBrokenElsewhere")
		os.Exit(1)
	}
	fmt.Println("PASS")
	os.Exit(0)
}

// fakeBench points benchCommand at the helper above for one test.
func fakeBench(t *testing.T, mode string) {
	t.Helper()
	prev := benchCommand
	benchCommand = func(args []string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperBench$")
		cmd.Env = append(os.Environ(), "BENCHJSON_HELPER="+mode)
		return cmd
	}
	t.Cleanup(func() { benchCommand = prev })
}

// TestRunSalvagesReportOnFailure: when go test exits non-zero after
// producing benchmark lines, the report is still written — and the
// failure still surfaces as a non-zero exit.
func TestRunSalvagesReportOnFailure(t *testing.T) {
	fakeBench(t, "fail")
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut bytes.Buffer
	code, err := run([]string{"-out", outPath}, &out, &errOut)
	if code == 0 || err == nil {
		t.Fatalf("failing bench run reported success: code=%d err=%v", code, err)
	}
	rep, rerr := readReport(outPath)
	if rerr != nil {
		t.Fatalf("salvaged report unreadable: %v (stderr: %s)", rerr, errOut.String())
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkSalvaged-8" {
		t.Errorf("salvaged benchmarks = %+v, want the one completed line", rep.Benchmarks)
	}
	if !strings.Contains(errOut.String(), "salvaging") {
		t.Errorf("stderr does not announce the salvage:\n%s", errOut.String())
	}
}

// TestRunHealthyWritesReport: the happy path through the same seam.
func TestRunHealthyWritesReport(t *testing.T) {
	fakeBench(t, "ok")
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut bytes.Buffer
	code, err := run([]string{"-out", outPath}, &out, &errOut)
	if code != 0 || err != nil {
		t.Fatalf("run: code=%d err=%v (stderr: %s)", code, err, errOut.String())
	}
	rep, err := readReport(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Errorf("report has %d benchmarks, want 1", len(rep.Benchmarks))
	}
}

// TestRunFailureWithoutOutputKeepsError: nothing to salvage — the go
// test error must come through instead of "no benchmark results".
func TestRunFailureWithoutOutputKeepsError(t *testing.T) {
	prev := benchCommand
	benchCommand = func(args []string) *exec.Cmd { return exec.Command("false") }
	t.Cleanup(func() { benchCommand = prev })
	var out, errOut bytes.Buffer
	code, err := run([]string{"-out", filepath.Join(t.TempDir(), "b.json")}, &out, &errOut)
	if code != 1 || err == nil || !strings.Contains(err.Error(), "go test") {
		t.Fatalf("code=%d err=%v, want the go test failure", code, err)
	}
}

func TestParseBenchFractionalNs(t *testing.T) {
	got, err := parseBench(strings.NewReader(
		"BenchmarkTiny-4   \t 200000000 \t 6.02 ns/op \t 0 B/op \t 0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].NsPerOp != 6.02 {
		t.Fatalf("fractional ns/op parsed wrong: %+v", got)
	}
}
