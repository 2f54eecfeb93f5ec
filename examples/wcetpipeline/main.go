// Wcetpipeline demonstrates the full tool chain on a hand-written
// program: build a structured control-flow tree, derive its task
// parameters with the static cache analysis (the repository's Heptane
// stand-in), wrap it into a two-task workload, bound the response
// times analytically, and finally run the cycle-accurate simulator to
// show the bounds hold.
//
// Run with:
//
//	go run ./examples/wcetpipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/staticwcet"
	"repro/internal/taskmodel"
)

func main() {
	plat := taskmodel.Platform{
		NumCores: 2,
		Cache:    taskmodel.CacheConfig{NumSets: 64, BlockSizeBytes: 32},
		DMem:     5,
		SlotSize: 2,
	}

	// A small "sensor filter": init code, a sampling loop over a
	// persistent kernel, and a reporting phase that aliases part of the
	// init code (64 sets apart), so some blocks are not persistent.
	filter := &program.Program{Name: "filter", Root: program.S(
		program.Straight(0, 6, 2),                 // init: blocks 0..5
		program.L(50, program.Straight(6, 10, 3)), // kernel: blocks 6..15
		program.Straight(64, 4, 2),                // report: aliases blocks 0..3
	)}

	// A background logger on the second core.
	logger := &program.Program{Name: "logger", Root: program.S(
		program.L(20, program.Straight(100, 12, 2)),
	)}

	fmt.Println("step 1: static WCET/cache analysis")
	var tasks []*taskmodel.Task
	var bindings []sim.TaskBinding
	for i, spec := range []struct {
		prog   *program.Program
		core   int
		period taskmodel.Time
	}{
		{filter, 0, 6000},
		{logger, 1, 9000},
	} {
		r, err := staticwcet.Analyze(spec.prog, plat.Cache)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s PD=%-6d MD=%-5d MD^r=%-5d |ECB|=%d |PCB|=%d |UCB|=%d\n",
			spec.prog.Name, r.PD, r.MD, r.MDr, r.ECB.Count(), r.PCB.Count(), r.UCB.Count())
		task := r.ToTask(spec.prog.Name, spec.core, i, spec.period, spec.period)
		tasks = append(tasks, task)
		bindings = append(bindings, sim.TaskBinding{Task: task, Prog: spec.prog})
	}
	ts := taskmodel.NewTaskSet(plat, tasks)

	fmt.Println("\nstep 2: WCRT analysis on the RR bus")
	for _, persistence := range []bool{false, true} {
		res, err := core.Analyze(ts, core.Config{Arbiter: core.RR, Persistence: persistence}, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  persistence=%v:", persistence)
		for _, tr := range res.Tasks {
			fmt.Printf("  R(%s)=%d", tr.Name, tr.WCRT)
		}
		fmt.Println()
	}

	fmt.Println("\nstep 3: cycle-accurate simulation (three hyperperiods)")
	simRes, err := sim.Run(plat, bindings, sim.Config{
		Policy:  core.RR,
		Horizon: sim.HorizonForJobs(bindings, 3),
	})
	if err != nil {
		log.Fatal(err)
	}
	aware, err := core.Analyze(ts, core.Config{Arbiter: core.RR, Persistence: true}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, tr := range aware.Tasks {
		st := simRes.Tasks[tr.Priority]
		fmt.Printf("  %-8s observed max R = %-6d analytical WCRT = %-6d (%.0f%% of bound), max misses/job = %d\n",
			st.Name, st.MaxResponse, tr.WCRT,
			100*float64(st.MaxResponse)/float64(tr.WCRT), st.MaxMissesPerJob)
		if st.MaxResponse > tr.WCRT {
			log.Fatalf("soundness violation for %s", st.Name)
		}
	}
	fmt.Println("\nall observed response times are within the analytical bounds.")
}
