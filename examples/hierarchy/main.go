// Hierarchy demonstrates the two-level cache extension (the paper's
// stated future work): the same workload is analysed and simulated
// with and without a private L2 per core. The L2 absorbs conflict-miss
// traffic, so the bus sees a fraction of the accesses and the
// persistence-aware WCRT bounds tighten accordingly.
//
// Run with:
//
//	go run ./examples/hierarchy
package main

import (
	"fmt"
	"log"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/staticwcet"
	"repro/internal/taskmodel"
)

// The workload: two cache-thrashing benchmarks per core whose
// footprints overflow a small L1 but fit the L2 comfortably.
var workload = []struct {
	bench  string
	core   int
	period taskmodel.Time
}{
	{"crc", 0, 60_000},
	{"fdct", 0, 90_000},
	{"adpcm", 1, 120_000},
	{"compress", 1, 150_000},
}

func main() {
	l1 := taskmodel.CacheConfig{NumSets: 64, BlockSizeBytes: 32}
	l2 := taskmodel.CacheConfig{NumSets: 512, BlockSizeBytes: 32, Associativity: 2}

	single := taskmodel.Platform{NumCores: 2, Cache: l1, DMem: 5, SlotSize: 2}
	double := single
	double.L2 = l2
	double.DL2 = 2

	fmt.Println("Two-level cache extension: same workload, with and without a private L2")
	fmt.Printf("L1: %d sets; L2: %d sets x %d ways, d_l2=%d; d_mem=%d\n\n",
		l1.NumSets, l2.NumSets, l2.Ways(), double.DL2, single.DMem)

	var tasksL1, tasksL2 []*taskmodel.Task
	var bindingsL1, bindingsL2 []sim.TaskBinding

	fmt.Println("per-benchmark bus demand (MD = bus accesses per cold job):")
	for prio, w := range workload {
		b, err := benchsuite.ByName(w.bench)
		if err != nil {
			log.Fatal(err)
		}
		r1, err := staticwcet.Analyze(b.Prog, l1)
		if err != nil {
			log.Fatal(err)
		}
		h, err := staticwcet.AnalyzeHierarchy(b.Prog, l1, l2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s L1-only MD=%-6d  with L2: bus MD=%d (exact %d), MD^r=%d, L2-persistent sets=%d\n",
			w.bench, r1.MD, h.MD, h.MDExact, h.MDr, h.PCB.Count())

		t1 := r1.ToTask(w.bench, w.core, prio, w.period, w.period)
		tasksL1 = append(tasksL1, t1)
		bindingsL1 = append(bindingsL1, sim.TaskBinding{Task: t1, Prog: b.Prog})

		// Hierarchy parameters: the bus only sees L2 misses; the
		// L1-miss/L2-hit latency is folded into the execution demand.
		t2 := &taskmodel.Task{
			Name: w.bench, Core: w.core, Priority: prio,
			PD: h.PD + taskmodel.Time(h.L1Misses)*double.DL2,
			MD: h.MD, MDr: h.MDr,
			Period: w.period, Deadline: w.period,
			UCB: h.UCB, ECB: h.ECB, PCB: h.PCB,
		}
		tasksL2 = append(tasksL2, t2)
		bindingsL2 = append(bindingsL2, sim.TaskBinding{Task: t2, Prog: b.Prog})
	}

	// Note: the hierarchy task set uses L2 geometry for its footprints.
	setL1 := taskmodel.NewTaskSet(single, tasksL1)
	platL2 := double
	platL2.Cache = l2 // analysis footprints live at L2 granularity
	platL2.L2 = taskmodel.CacheConfig{}
	platL2.DL2 = 0
	setL2 := taskmodel.NewTaskSet(platL2, tasksL2)

	fmt.Println("\npersistence-aware RR analysis:")
	for _, cse := range []struct {
		label string
		ts    *taskmodel.TaskSet
	}{{"L1 only", setL1}, {"L1 + L2", setL2}} {
		res, err := core.Analyze(cse.ts, core.Config{Arbiter: core.RR, Persistence: true}, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s schedulable=%v  WCRTs:", cse.label, res.Schedulable)
		for _, tr := range res.Tasks {
			fmt.Printf(" %s=%d", tr.Name, tr.WCRT)
		}
		fmt.Println()
	}

	fmt.Println("\ncycle-accurate simulation (2 hyper-ish windows):")
	for _, cse := range []struct {
		label    string
		plat     taskmodel.Platform
		bindings []sim.TaskBinding
	}{{"L1 only", single, bindingsL1}, {"L1 + L2", double, bindingsL2}} {
		res, err := sim.Run(cse.plat, cse.bindings, sim.Config{
			Policy:  core.RR,
			Horizon: sim.HorizonForJobs(cse.bindings, 2),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s bus accesses=%-6d bus busy=%.1f%%", cse.label, res.BusServe,
			100*float64(res.BusBusy)/float64(res.Cycles))
		var l2hits int64
		for _, st := range res.Tasks {
			l2hits += st.L2Hits
		}
		if cse.plat.HasL2() {
			fmt.Printf("  L2 hits=%d", l2hits)
		}
		fmt.Println()
	}
	fmt.Println("\nThe L2 absorbs the conflict misses that thrash the small L1, cutting")
	fmt.Println("both the analytical bus demand and the simulated bus traffic.")
}
