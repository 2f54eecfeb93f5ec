// Designspace walks a small design-space exploration for one workload:
// compare task-to-core partitioning heuristics, upgrade priorities
// from deadline-monotonic to Audsley's OPA where DM fails, and
// quantify the remaining margin with sensitivity analysis — all on top
// of the persistence-aware RR-bus analysis.
//
// Run with:
//
//	go run ./examples/designspace
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/opa"
	"repro/internal/partition"
	"repro/internal/taskgen"
)

func main() {
	cfg := taskgen.DefaultConfig()
	cfg.Platform.NumCores = 4
	cfg.TasksPerCore = 6
	cfg.CoreUtilization = 0.28
	pool, err := taskgen.PoolFromSuite(cfg.Platform.Cache)
	if err != nil {
		log.Fatal(err)
	}
	ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(11)))
	if err != nil {
		log.Fatal(err)
	}
	anaCfg := core.Config{Arbiter: core.RR, Persistence: true}

	fmt.Println("Design-space exploration under the persistence-aware RR analysis")
	fmt.Printf("(%d tasks, %d cores, per-core utilization %.2f)\n\n",
		len(ts.Tasks), cfg.Platform.NumCores, cfg.CoreUtilization)

	// 1. Partitioning heuristics.
	fmt.Println("1. task-to-core partitioning:")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  placement\tschedulable\tPCB/ECB overlap score\tload spread")
	report := func(name string) (bool, error) {
		res, err := core.Analyze(ts, anaCfg, core.Options{})
		if err != nil {
			return false, err
		}
		loads := partition.Loads(ts)
		sort.Float64s(loads)
		fmt.Fprintf(tw, "  %s\t%v\t%d\t%.3f\n",
			name, res.Schedulable, partition.OverlapScore(ts), loads[len(loads)-1]-loads[0])
		return res.Schedulable, nil
	}
	if _, err := report("paper split (generator)"); err != nil {
		log.Fatal(err)
	}
	var bestSched bool
	for _, h := range []partition.Heuristic{partition.FirstFit, partition.WorstFit, partition.CacheAware} {
		if err := partition.Assign(ts, h); err != nil {
			log.Fatal(err)
		}
		ok, err := report(h.String())
		if err != nil {
			log.Fatal(err)
		}
		bestSched = bestSched || ok
	}
	tw.Flush()

	// Keep the cache-aware placement (assigned last) for the next steps.
	fmt.Println()

	// 2. Priority assignment: DM vs OPA.
	fmt.Println("2. priority assignment on the cache-aware placement:")
	dmRes, err := core.Analyze(ts, anaCfg, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  deadline monotonic: schedulable = %v\n", dmRes.Schedulable)
	opaRes, err := opa.Assign(ts, anaCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Audsley OPA:        schedulable = %v\n", opaRes.Schedulable)
	working := ts
	if opaRes.Schedulable {
		if working, err = opa.ApplyTo(ts, opaRes); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println()

	// 3. Margin of the chosen design.
	fmt.Println("3. sensitivity of the chosen design:")
	maxD, err := core.MaxDMem(working, anaCfg, 1<<16, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  largest schedulable d_mem:        %d (platform uses %d)\n", maxD, working.Platform.DMem)
	if k, err := core.CriticalScaling(working, anaCfg, 1e-3, core.Options{}); err == nil {
		fmt.Printf("  critical period scaling:          %.3f (headroom below 1.0)\n", k)
	}
	baseK, errB := core.CriticalScaling(working, core.Config{Arbiter: core.RR}, 1e-3, core.Options{})
	if errB == nil {
		fmt.Printf("  same metric without persistence: %.3f\n", baseK)
	}
}
