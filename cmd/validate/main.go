// Command validate runs a soundness campaign: many random workloads,
// each simulated cycle-accurately under every bus policy (with
// synchronous, offset and sporadic releases) and checked against the
// analytical WCRT bounds of the baseline and persistence-aware
// analyses. Any observed response time above a claimed bound, or any
// deadline miss in a set declared schedulable, is a soundness
// violation and fails the run.
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
	"math/rand"
	"os"
	"os/signal"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/persistence"
	"repro/internal/sim"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

var smallBenchmarks = []string{"lcdnum", "cnt", "qurt", "crc", "jfdctint", "ns", "edn"}

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
	var pool []taskgen.TaskParams
	progs := map[string]*benchsuite.Benchmark{}
	for _, name := range smallBenchmarks {
		b, err := benchsuite.ByName(name)
		if err != nil {
			return 1, err
		}
		p, err := benchsuite.Extract(b, cfg.Platform.Cache)
		if err != nil {
			return 1, err
		}
		r := p.Result
		pool = append(pool, taskgen.TaskParams{
			Name: name, PD: r.PD, MD: r.MD, MDr: r.MDr,
			UCB: r.UCB, ECB: r.ECB, PCB: r.PCB,
		})
		bb := b
		progs[name] = &bb
	}

	arbiters := []core.Arbiter{core.FP, core.RR, core.TDMA, core.Regulated, core.ParAware}
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
		ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(seed)))
		if err != nil {
			return 1, err
		}
		var bindings []sim.TaskBinding
		for _, task := range ts.Tasks {
			bindings = append(bindings, sim.TaskBinding{Task: task, Prog: progs[task.Name].Prog})
		}
		horizon := sim.HorizonForJobs(bindings, *jobs)

		for _, arb := range arbiters {
			modes := []sim.Config{{Policy: arb, Horizon: horizon}}
			if *jitter > 0 {
				modes = append(modes, sim.Config{
					Policy: arb, Horizon: horizon, ArrivalJitter: *jitter, Seed: seed,
				})
			}
			offsets := map[int]taskmodel.Time{}
			for i, task := range ts.Tasks {
				offsets[task.Priority] = taskmodel.Time((seed*131 + int64(i)*89) % 400)
			}
			modes = append(modes, sim.Config{Policy: arb, Horizon: horizon, Offsets: offsets})

			for _, mode := range modes {
				simRes, err := sim.Run(ts.Platform, bindings, mode)
				if err != nil {
					return 1, err
				}
				for _, ana := range analyses {
					if ana.Arbiter != arb {
						continue
					}
					res, err := core.Analyze(ts, ana, core.Options{})
					if err != nil {
						return 1, err
					}
					if !res.Schedulable {
						continue
					}
					claimed++
					for _, tr := range res.Tasks {
						st := simRes.Tasks[tr.Priority]
						checks++
						if st.MaxResponse > tr.WCRT || st.DeadlineMisses > 0 {
							violations++
							fmt.Fprintf(stdout, "VIOLATION seed=%d %v persistence=%v task=%s observed=%d bound=%d misses=%d\n",
								seed, ana.Arbiter, ana.Persistence, st.Name, st.MaxResponse, tr.WCRT, st.DeadlineMisses)
						}
					}
				}
			}
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
