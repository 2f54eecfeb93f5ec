// Command simulate generates a random workload, runs the
// cycle-accurate multicore simulator and the analytical WCRT analysis
// side by side, and prints observed maxima against the analytical
// bounds — the repository's executable soundness demonstration
// ("our simulator is available on demand"). It is the one-workload,
// synchronous-release view of the campaign driver in internal/sim,
// whose claim rule decides the soundness verdict.
//
// Usage:
//
//	simulate -seed 3 -cores 2 -tasks-per-core 3 -util 0.3 -policy rr -jobs 3
//
// Ctrl-C interrupts between the simulation and analysis steps; the
// observed results gathered so far are still printed and the process
// exits with code 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"text/tabwriter"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

// run executes the whole command against explicit streams and returns
// the process exit code (0 ok, 2 soundness violation, 130
// interrupted), so tests can drive it end to end.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "RNG seed")
	cores := fs.Int("cores", 2, "number of cores")
	perCore := fs.Int("tasks-per-core", 3, "tasks per core")
	util := fs.Float64("util", 0.3, "per-core utilization target")
	policyS := fs.String("policy", "rr", "bus arbiter: fp, rr, tdma, regulated or paraware (perfect has no bus to simulate)")
	jobs := fs.Int("jobs", 3, "simulate about this many jobs of the longest-period task")
	sets := fs.Int("sets", 64, "cache sets per core")
	dmem := fs.Int64("dmem", 5, "memory access time (cycles)")
	regQ := fs.Int64("reg-budget", 5, "regulated bus: per-core budget Q (accesses per period)")
	regP := fs.Int64("reg-period", 100, "regulated bus: replenishment period P (cycles)")
	allBench := fs.Bool("all-benchmarks", false, "draw from the full suite (large traces; slow)")
	trace := fs.Bool("trace", false, "print every simulator event (releases, misses, bus grants, preemptions)")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *jobs < 1 {
		return 1, fmt.Errorf("-jobs must be at least 1 (got %d)", *jobs)
	}

	arbiter, err := core.ParseArbiter(*policyS)
	if err != nil {
		return 1, err
	}

	cfg := taskgen.Config{
		Platform: taskmodel.Platform{
			NumCores:  *cores,
			Cache:     taskmodel.CacheConfig{NumSets: *sets, BlockSizeBytes: 32},
			DMem:      taskmodel.Time(*dmem),
			SlotSize:  2,
			RegBudget: *regQ,
			RegPeriod: taskmodel.Time(*regP),
		},
		TasksPerCore:    *perCore,
		CoreUtilization: *util,
	}

	names := sim.SmallBenchmarks
	if *allBench {
		names = nil
		for _, b := range benchsuite.Suite() {
			names = append(names, b.Name)
		}
	}
	pool, err := sim.Pool(names, cfg.Platform.Cache)
	if err != nil {
		return 1, err
	}

	// The simulator and analyzer are not context-aware mid-run; honour
	// Ctrl-C between the steps instead.
	canceled := func() bool { return ctx != nil && ctx.Err() != nil }
	if canceled() {
		return 130, nil
	}

	w, err := sim.GenerateWorkload(cfg, pool, *seed, *jobs)
	if err != nil {
		return 1, err
	}

	fmt.Fprintf(stdout, "simulating %d tasks on %d cores, %s bus, horizon %d cycles\n\n",
		len(w.Bindings), *cores, arbiter, w.Horizon)

	// Once announced, the simulation always runs to completion (it is
	// not interruptible mid-cycle) so an interrupt can still report the
	// observed behaviour below.
	simCfg := sim.Config{Policy: arbiter, Horizon: w.Horizon}
	if *trace {
		simCfg.Trace = &sim.WriterTracer{W: stdout}
	}
	simRes, err := sim.Run(cfg.Platform, w.Bindings, simCfg)
	if err != nil {
		return 1, err
	}

	// An interrupt after the simulation still prints the observed
	// behaviour; the analytical columns degrade to "n/a".
	var res [2]*core.Result // baseline, persistence-aware
	interrupted := false
	for k := range res {
		if interrupted = canceled(); interrupted {
			break
		}
		if res[k], err = core.Analyze(w.TaskSet, core.Config{Arbiter: arbiter, Persistence: k == 1}, core.Options{}); err != nil {
			return 1, err
		}
	}

	// boundOf renders the bound of the i-th task (priority order).
	boundOf := func(r *core.Result, i int) string {
		switch {
		case r == nil:
			return "n/a" // interrupted before this analysis ran
		case !r.Tasks[i].Verified:
			return "n/a" // aborted before judging this task
		case !r.Tasks[i].Schedulable:
			return "miss"
		}
		return fmt.Sprint(r.Tasks[i].WCRT)
	}

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "task\tcore\tprio\tjobs\tobserved max R\tWCRT (base)\tWCRT (CP)\tmax misses/job\tdeadline misses")
	for i, task := range w.TaskSet.Tasks {
		st := simRes.Tasks[task.Priority]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\n",
			st.Name, st.Core, st.Priority, st.Completed, st.MaxResponse,
			boundOf(res[0], i), boundOf(res[1], i), st.MaxMissesPerJob, st.DeadlineMisses)
	}
	if err := tw.Flush(); err != nil {
		return 1, err
	}
	violated := false
	for _, r := range res {
		if r != nil {
			_, vs := sim.Check(r, simRes)
			violated = violated || len(vs) > 0
		}
	}

	fmt.Fprintf(stdout, "\nbus: %d accesses served, busy %d of %d cycles (%.1f%%)\n",
		simRes.BusServe, simRes.BusBusy, simRes.Cycles,
		100*float64(simRes.BusBusy)/float64(simRes.Cycles))
	if violated {
		fmt.Fprintln(stdout, "SOUNDNESS VIOLATION: an observed response exceeded a claimed WCRT bound")
		return 2, nil
	}
	if interrupted {
		fmt.Fprintln(stdout, "INTERRUPTED: observed results above; analytical bounds were not (fully) computed")
		return 130, nil
	}
	fmt.Fprintf(stdout, "analysis verdicts: baseline schedulable=%v, persistence-aware schedulable=%v\n",
		res[0].Schedulable, res[1].Schedulable)
	fmt.Fprintln(stdout, "soundness: all observed response times within claimed WCRT bounds")
	return 0, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
