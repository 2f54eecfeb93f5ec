// Command validate runs a soundness campaign: many random workloads,
// each simulated cycle-accurately under every bus policy (with
// synchronous, offset and sporadic releases) and checked against the
// analytical WCRT bounds of the baseline and persistence-aware
// analyses. Any observed response time above a claimed bound, or any
// deadline miss in a set declared schedulable, is a soundness
// violation and fails the run. It is the campaign view of the driver
// in internal/sim: pool, bindings, release modes and claim rule all
// come from there, and each analysis runs once per workload.
//
// Usage:
//
//	validate -seeds 20 -util 0.25 -jobs 3
//
// Ctrl-C interrupts between workloads; the summary covers the
// workloads completed so far and the process exits with code 130 (or
// 2 if a violation had already been found).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/internal/core"
	"repro/internal/persistence"
	"repro/internal/sim"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

// run executes the whole campaign against explicit streams and
// returns the process exit code (0 ok, 2 violations found, 130
// interrupted), so tests can drive it end to end.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 10, "number of random workloads")
	util := fs.Float64("util", 0.25, "per-core utilization target")
	cores := fs.Int("cores", 2, "cores")
	perCore := fs.Int("tasks-per-core", 3, "tasks per core")
	jobs := fs.Int("jobs", 3, "horizon in jobs of the longest-period task")
	jitter := fs.Float64("jitter", 0.5, "sporadic arrival jitter fraction (0 disables the sporadic pass)")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *jobs < 1 {
		return 1, fmt.Errorf("-jobs must be at least 1 (got %d)", *jobs)
	}

	cfg := taskgen.Config{
		Platform: taskmodel.Platform{
			NumCores: *cores,
			Cache:    taskmodel.CacheConfig{NumSets: 64, BlockSizeBytes: 32},
			DMem:     5,
			SlotSize: 2,
			// A small budget over a mid-length period keeps the regulated
			// policy's budget-exhaustion path hot: cores regularly drain
			// their quota mid-window and fall back to reclaim service.
			RegBudget: 4,
			RegPeriod: 150,
		},
		TasksPerCore:    *perCore,
		CoreUtilization: *util,
	}
	pool, err := sim.Pool(sim.SmallBenchmarks, cfg.Platform.Cache)
	if err != nil {
		return 1, err
	}

	// Each arbiter is simulated in the order it first appears here.
	analyses := []core.Config{
		{Arbiter: core.FP}, {Arbiter: core.FP, Persistence: true},
		{Arbiter: core.RR}, {Arbiter: core.RR, Persistence: true},
		{Arbiter: core.RR, Persistence: true, CPRO: persistence.MultisetUnion},
		{Arbiter: core.TDMA}, {Arbiter: core.TDMA, Persistence: true},
		{Arbiter: core.Regulated}, {Arbiter: core.Regulated, Persistence: true},
		{Arbiter: core.ParAware}, {Arbiter: core.ParAware, Persistence: true},
	}

	fmt.Fprintf(stdout, "validate: campaign of %d workloads (%d cores, %d tasks/core, util %.2f)\n",
		*seeds, *cores, *perCore, *util)

	// Each workload is simulated under every policy and release mode;
	// honour Ctrl-C between workloads and still print the summary for
	// the ones already checked.
	canceled := func() bool { return ctx != nil && ctx.Err() != nil }
	checks, violations, claimed, completed := 0, 0, 0, 0
	for seed := int64(0); seed < int64(*seeds); seed++ {
		if canceled() {
			break
		}
		w, err := sim.GenerateWorkload(cfg, pool, seed, *jobs)
		if err != nil {
			return 1, err
		}
		err = w.Sweep(analyses, w.Modes(seed, *jitter), func(_ sim.Config, ana core.Config, checked int, vs []sim.Violation) {
			if checked > 0 {
				claimed++
			}
			checks += checked
			for _, v := range vs {
				violations++
				fmt.Fprintf(stdout, "VIOLATION seed=%d %v persistence=%v task=%s observed=%d bound=%d misses=%d\n",
					seed, ana.Arbiter, ana.Persistence, v.Task, v.Observed, v.Bound, v.DeadlineMisses)
			}
		})
		if err != nil {
			return 1, err
		}
		completed++
	}

	interrupted := canceled() && completed < *seeds
	if interrupted {
		fmt.Fprintf(stdout, "INTERRUPTED after %d of %d workloads\n", completed, *seeds)
	}
	fmt.Fprintf(stdout, "validate: %d workloads, %d schedulable claims, %d per-task checks, %d violations\n",
		completed, claimed, checks, violations)
	if violations > 0 {
		return 2, nil
	}
	if interrupted {
		return 130, nil
	}
	fmt.Fprintln(stdout, "all analytical bounds dominate the simulated behaviour")
	return 0, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
