// Command sensitivity locates the edge of schedulability for a task
// set: the largest tolerable memory access time d_mem, and the
// critical period-scaling factor, under every bus arbiter with and
// without persistence awareness. It quantifies, in model-parameter
// units rather than verdicts, how much margin cache persistence
// awareness buys.
//
// Usage:
//
//	sensitivity -in taskset.json
//	gentaskset -util 0.3 | sensitivity -in -
//
// Telemetry flags: -metrics prints analyzer counters over the whole
// search (the binary searches run many analyses), -trace FILE writes
// a Chrome trace-event JSON viewable at ui.perfetto.dev, -v enables
// debug logging.
//
// Ctrl-C interrupts the search gracefully: the rows computed so far
// are still printed and the process exits with code 130.
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

// run executes the command against explicit streams so tests can
// drive it end to end. Exit codes: 0 ok, 1 error, 130 interrupted
// (rows computed before the interrupt are still printed).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("sensitivity", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "task set JSON file (required; - for stdin)")
	limit := fs.Int64("dmem-limit", 1<<16, "upper bound for the d_mem search")
	tol := fs.Float64("tol", 1e-3, "relative tolerance of the scaling search")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON file (view at ui.perfetto.dev)")
	metrics := fs.Bool("metrics", false, "print analyzer counters and histograms on exit")
	verbose := fs.Bool("v", false, "enable debug logging")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *in == "" {
		fs.Usage()
		return 1, fmt.Errorf("missing -in")
	}

	sess, err := telemetry.StartSession(telemetry.SessionOptions{
		Tool:      "sensitivity",
		TracePath: *tracePath, Metrics: *metrics,
		Verbose: *verbose, Out: stderr,
	})
	if err != nil {
		return 1, err
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil {
			fmt.Fprintln(stderr, "sensitivity:", cerr)
		}
	}()
	copts := core.Options{Observer: sess.Observer()}

	var f io.ReadCloser = os.Stdin
	if *in != "-" {
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

	fmt.Fprintf(stdout, "platform: %d cores, %d sets, d_mem=%d; %d tasks, bus utilization %.3f\n\n",
		ts.Platform.NumCores, ts.Platform.Cache.NumSets, ts.Platform.DMem,
		len(ts.Tasks), ts.BusUtilization())

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "analysis\tschedulable\tmax d_mem\tcritical scaling")
	interrupted := false
	arbs := []core.Arbiter{core.FP, core.RR, core.TDMA}
	// The regulated row needs the regulation parameters; task sets
	// written before they existed decode them as zero, so gate the row
	// rather than fail the whole table.
	if ts.Platform.RegBudget >= 1 && ts.Platform.RegPeriod >= 1 {
		arbs = append(arbs, core.Regulated)
	}
	arbs = append(arbs, core.ParAware)
rows:
	for _, arb := range arbs {
		for _, persistence := range []bool{false, true} {
			// Each row runs three searches (tens to hundreds of analyzer
			// runs); stop between rows when interrupted so the table built
			// so far is still printed.
			if ctx != nil && ctx.Err() != nil {
				interrupted = true
				break rows
			}
			cfg := core.Config{Arbiter: arb, Persistence: persistence}
			name := arb.String()
			if persistence {
				name += "-CP"
			}
			res, err := core.Analyze(ts, cfg, copts)
			if err != nil {
				return 1, err
			}
			maxD, err := core.MaxDMem(ts, cfg, taskmodel.Time(*limit), copts)
			if err != nil {
				return 1, err
			}
			scaling := "-"
			if k, err := core.CriticalScaling(ts, cfg, *tol, copts); err == nil {
				scaling = fmt.Sprintf("%.3f", k)
			}
			fmt.Fprintf(tw, "%s\t%v\t%d\t%s\n", name, res.Schedulable, maxD, scaling)
		}
	}
	if err := tw.Flush(); err != nil {
		return 1, err
	}
	if interrupted {
		fmt.Fprintln(stdout, "\ninterrupted: rows above are partial")
		return 130, nil
	}
	fmt.Fprintln(stdout, "\nmax d_mem: largest memory latency the analysis still proves schedulable")
	fmt.Fprintln(stdout, "critical scaling: smallest factor on all periods/deadlines that is schedulable")
	fmt.Fprintln(stdout, "(< 1 means headroom; persistence-aware rows should never show less margin)")
	return 0, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sensitivity:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
