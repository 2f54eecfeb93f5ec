// Command e2ebench is the repository's end-to-end benchmark. One
// process runs one workload for a fixed time, checks the program's
// outputs, and prints every metric by name with its unit and sample
// count; the last line of standard output is a JSON object
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// with the end-to-end metrics (-trace 0) or, from a separate traced
// run, the per-layer metrics (-trace 1). Workloads (see BENCHMARK.json
// for why each exists and layers.json for which layer metric should
// move which end-to-end metric):
//
//	sweep  the paper's Fig. 3a study through experiments.Fig3a
//	edit   closed-loop /v1/analyze/delta edit chains on one node
//	serve  open-loop fresh/dup/delta traffic on a 2-node fleet
//
// Inputs derive only from -seed. Per-layer numbers are measured from
// outside the program: by timing calls into public functions, wrapping
// the server's handler in the benchmark's own middleware, and reading
// the telemetry.Observer counters and /metrics histograms.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// deadline bounds a whole run; a run that has not finished by then is
// broken, and exits non-zero instead of hanging its caller.
const deadline = 170 * time.Second

// setupReps is how many times a run builds its inputs and servers;
// setup_s is the median. All but the last build are torn down.
const setupReps = 5

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outdir   string
	stdout   io.Writer
	steal    *stealMeter
}

// measured is one metric as printed: value, unit and the number of
// samples it summarizes.
type measured struct {
	value float64
	unit  string
	n     int
	note  string
}

// report is what a workload returns.
type report struct {
	attempted int
	failed    int
	problems  []string // output mismatches and accounting failures
	metrics   map[string]measured
}

func newReport() *report { return &report{metrics: map[string]measured{}} }

func (r *report) set(name string, value float64, unit string, n int) {
	r.metrics[name] = measured{value: value, unit: unit, n: n}
}

func (r *report) setNote(name string, value float64, unit string, n int, note string) {
	r.metrics[name] = measured{value: value, unit: unit, n: n, note: note}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setDist records a distribution's median and tail under the two
// names, noting when the tail fell short of p99 for lack of samples.
func (r *report) setDist(p50Name, tailName string, d dist, unit string) {
	r.set(p50Name, d.p50, unit, d.n)
	note := ""
	if !d.tailFull {
		note = fmt.Sprintf("tail is p%.2f: too few samples for p99 with %d beyond", 100*d.tailQ, minTail)
	}
	if d.windows > 1 {
		note = fmt.Sprintf("median of %d windows' p99", d.windows)
	}
	r.setNote(tailName, d.tail, unit, d.n, note)
}

// endToEnd and perLayer name every metric each mode must print, in the
// order BENCHMARK.json lists them.
var endToEnd = []string{"setup_s", "throughput", "latency_p50_ms", "peak_rss_mb"}

var workloads = map[string]func(runConfig) (*report, error){
	"sweep": runSweep,
	"edit":  runEdit,
	"serve": runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sweep, edit or serve")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outdir := fs.String("outdir", ".bench_build", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: want -workload sweep|edit|serve, -seconds > 0, -trace 0|1\n")
		return 2
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(stderr, "e2ebench: run exceeded %v, aborting\n", deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	cfg := runConfig{
		workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1, outdir: *outdir, stdout: stdout,
		steal: startStealMeter(),
	}
	start := time.Now()
	fmt.Fprintf(stdout, "e2ebench: workload=%s seed=%d seconds=%g trace=%d nproc=%d\n",
		cfg.workload, cfg.seed, *seconds, *trace, nproc())
	ref := calibrate(cfg.steal)
	rep, err := fn(cfg)
	ref = append(ref, calibrate(cfg.steal)...)
	cfg.steal.stop()
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.set("steal_share", cfg.steal.share(start, time.Now()), "share", 1)
	if cfg.workload == "serve" {
		// Open-loop latency is queueing time, which does not scale
		// linearly with host speed; serve stays steal-adjusted only.
		rep.set("speed_factor", median(ref), "ratio", len(ref))
	} else {
		normalize(rep, median(ref))
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	for _, name := range names {
		if _, ok := rep.metrics[name]; !ok {
			fmt.Fprintf(stderr, "e2ebench: %s did not measure %s\n", cfg.workload, name)
			return 1
		}
	}
	printReport(stdout, cfg, rep, names)
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// printReport writes the human-readable metric lines and, last, the
// JSON result line.
func printReport(w io.Writer, cfg runConfig, rep *report, names []string) {
	fmt.Fprintf(w, "failed_share       %.6f  (%d failed of %d attempted)\n",
		share(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	extra := make([]string, 0)
	for name := range rep.metrics {
		if !contains(names, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range append(append([]string(nil), names...), extra...) {
		m := rep.metrics[name]
		line := fmt.Sprintf("%-36s %14.6g %-6s n=%d", name, m.value, m.unit, m.n)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, line)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jm{}}
	for _, name := range names {
		m := rep.metrics[name]
		out.Metrics[name] = jm{Value: m.value, Unit: m.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintln(w, string(line))
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func nproc() int { return runtime.NumCPU() }

// repeatSetup builds a run's state setupReps times, timing each build
// (steal-adjusted), tears down all but the last, and returns it with
// the median build time in seconds.
func repeatSetup[T any](cfg runConfig, build func(rep int) (T, error), teardown func(T)) (T, float64, error) {
	var cur T
	times := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		// Every build starts from a collected heap, so the earlier builds'
		// garbage is neither timed nor counted in the measured phase's
		// memory.
		debug.FreeOSMemory()
		t0 := time.Now()
		st, err := build(rep)
		if err != nil {
			return cur, 0, err
		}
		t1 := time.Now()
		cfg.steal.sample()
		times = append(times, cfg.steal.adjust(t0, t1).Seconds())
		if rep < setupReps-1 {
			teardown(st)
			continue
		}
		cur = st
	}
	fmt.Fprintf(cfg.stdout, "setup builds (s): %.4f\n", times)
	return cur, median(times), nil
}
