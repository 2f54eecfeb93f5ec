// Command buscon analyses a task set file and reports per-task WCRT
// bounds and schedulability under the chosen bus arbiter, with or
// without cache persistence awareness.
//
// Usage:
//
//	buscon -in taskset.json -arbiter rr -persistence
//
// Task set files are produced by cmd/gentaskset or by hand (see
// internal/taskmodel's JSON format). Telemetry flags: -metrics prints
// analyzer counters, -trace FILE writes a Chrome trace-event JSON
// viewable at ui.perfetto.dev, -convergence prints each task's
// fixed-point iterate chain (the trace of -explain), -v enables debug
// logging.
//
// Ctrl-C interrupts the analysis between steps; the process exits
// with code 130 (profiles and traces are still flushed).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// run executes the whole command against explicit streams and returns
// the process exit code (0 ok, 2 not schedulable, 130 interrupted), so
// tests can drive it end to end. Deferred cleanup — the telemetry
// session flush in particular — runs before the caller exits.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("buscon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "task set JSON file (required; - for stdin)")
	arbS := fs.String("arbiter", "rr", "bus arbiter: fp, rr, tdma, perfect, regulated or paraware")
	persist := fs.Bool("persistence", false, "enable the cache persistence-aware analysis (Lemmas 1-2)")
	crpdS := fs.String("crpd", "ecb-union", "CRPD approach: ecb-union, ucb-only, ecb-only, ucb-union, combined")
	cproS := fs.String("cpro", "union", "CPRO approach: union, multiset, full, none")
	compare := fs.Bool("compare", false, "also run the opposite persistence setting and print both")
	explain := fs.Int("explain", -1, "decompose the WCRT bound of the task with this priority")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON file (view at ui.perfetto.dev)")
	metrics := fs.Bool("metrics", false, "print analyzer counters and histograms on exit")
	convergence := fs.Bool("convergence", false, "print each task's fixed-point iterate chain to stderr")
	verbose := fs.Bool("v", false, "enable debug logging")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}

	sess, err := telemetry.StartSession(telemetry.SessionOptions{
		Tool:       "buscon",
		CPUProfile: *cpuprofile, MemProfile: *memprofile,
		TracePath: *tracePath, Metrics: *metrics,
		Verbose: *verbose, Out: stderr,
	})
	if err != nil {
		return 1, err
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil {
			fmt.Fprintln(stderr, "buscon:", cerr)
		}
	}()

	if *in == "" {
		fs.Usage()
		return 1, fmt.Errorf("missing -in")
	}
	var f io.ReadCloser
	if *in == "-" {
		f = os.Stdin
	} else {
		var err error
		f, err = os.Open(*in)
		if err != nil {
			return 1, err
		}
		defer f.Close()
	}
	ts, err := taskmodel.ReadJSON(f)
	if err != nil {
		return 1, err
	}

	cfg, err := core.WireConfig{Arbiter: *arbS, Persistence: *persist, CRPD: *crpdS, CPRO: *cproS}.Config()
	if err != nil {
		return 1, err
	}

	// A single analysis is fast, but -compare and -explain multiply the
	// work; honour Ctrl-C between the steps (telemetry still flushes
	// through the deferred session close).
	canceled := func() bool { return ctx != nil && ctx.Err() != nil }
	if canceled() {
		return 130, nil
	}

	obs := sess.Observer()
	res, err := core.Analyze(ts, cfg, core.Options{Observer: obs})
	if err != nil {
		return 1, err
	}

	var other *core.Result
	if *compare {
		if canceled() {
			return 130, nil
		}
		otherCfg := cfg
		otherCfg.Persistence = !cfg.Persistence
		if other, err = core.Analyze(ts, otherCfg, core.Options{Observer: obs}); err != nil {
			return 1, err
		}
	}

	fmt.Fprintf(stdout, "platform: %d cores, %d cache sets x %d B, d_mem=%d, slot=%d\n",
		ts.Platform.NumCores, ts.Platform.Cache.NumSets, ts.Platform.Cache.BlockSizeBytes,
		ts.Platform.DMem, ts.Platform.SlotSize)
	fmt.Fprintf(stdout, "analysis: %s bus, persistence=%v, crpd=%s, cpro=%s\n\n", cfg.Arbiter, cfg.Persistence, cfg.CRPD, cfg.CPRO)

	if !res.Schedulable {
		fmt.Fprintln(stdout, "note: analysis aborted at the first deadline miss; WCRTs of other tasks are mid-iteration estimates")
		fmt.Fprintln(stdout)
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	if other != nil {
		fmt.Fprintln(tw, "task\tcore\tprio\tT=D\tWCRT\tWCRT(other)\tverdict")
	} else {
		fmt.Fprintln(tw, "task\tcore\tprio\tT=D\tWCRT\tverdict")
	}
	cell := func(tr core.TaskResult) (wcrt, verdict string) {
		switch {
		case !tr.Verified:
			// The abort left only a mid-iteration lower bound.
			return ">=" + fmt.Sprint(tr.WCRT), "unverified"
		case !tr.Schedulable:
			return ">" + fmt.Sprint(tr.Deadline), "DEADLINE MISS"
		default:
			return fmt.Sprint(tr.WCRT), "OK"
		}
	}
	for i, tr := range res.Tasks {
		wcrt, verdict := cell(tr)
		if other != nil {
			ow, _ := cell(other.Tasks[i])
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%s\t%s\n", tr.Name, tr.Core, tr.Priority, tr.Deadline, wcrt, ow, verdict)
		} else {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%s\n", tr.Name, tr.Core, tr.Priority, tr.Deadline, wcrt, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return 1, err
	}

	fmt.Fprintf(stdout, "\nbus utilization: %.3f\n", ts.BusUtilization())
	if res.Schedulable {
		fmt.Fprintln(stdout, "task set: SCHEDULABLE")
	} else {
		fmt.Fprintln(stdout, "task set: NOT SCHEDULABLE")
	}
	if other != nil {
		fmt.Fprintf(stdout, "with persistence=%v: schedulable=%v\n", !cfg.Persistence, other.Schedulable)
	}
	if *explain >= 0 {
		if canceled() {
			return 130, nil
		}
		ex, err := core.Explain(ts, cfg, *explain)
		if err != nil {
			return 1, err
		}
		fmt.Fprintln(stdout)
		if err := ex.Render(stdout); err != nil {
			return 1, err
		}
	}
	if *convergence {
		fmt.Fprintln(stderr, "\nconvergence traces:")
		for _, tr := range res.Tasks {
			if canceled() {
				return 130, nil
			}
			ex, err := core.Explain(ts, cfg, tr.Priority)
			if err != nil {
				return 1, err
			}
			fmt.Fprintf(stderr, "%s (prio %d):\n", ex.Task, ex.Priority)
			if err := ex.RenderTrace(stderr); err != nil {
				return 1, err
			}
		}
	}
	if !res.Schedulable {
		return 2, nil
	}
	return 0, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "buscon:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
