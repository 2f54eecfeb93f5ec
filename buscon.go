// Package buscon is the public facade of the reproduction of
// "Cache Persistence-Aware Memory Bus Contention Analysis for
// Multicore Systems" (Rashid, Nelissen, Tovar — DATE 2020).
//
// It computes worst-case response times (WCRT) for sporadic,
// constrained-deadline tasks under partitioned fixed-priority
// preemptive scheduling on multicore platforms whose cores share a
// memory bus, arbitrated by fixed-priority (FP), Round-Robin (RR) or
// TDMA policies — with or without awareness of cache persistence, the
// paper's contribution.
//
// # Quick start
//
//	plat := buscon.DefaultPlatform()
//	pool, _ := buscon.BenchmarkPool(plat.Cache)
//	ts, _ := buscon.GenerateTaskSet(buscon.GenConfig{
//	    Platform: plat, TasksPerCore: 8, CoreUtilization: 0.5,
//	}, pool, rand.New(rand.NewSource(1)))
//	res, _ := buscon.Analyze(ts, buscon.AnalysisConfig{
//	    Arbiter: buscon.RR, Persistence: true,
//	})
//	fmt.Println(res.Schedulable)
//
// Subsystems live in internal packages: the structured program model
// and static cache analysis that derive task parameters
// (internal/program, internal/staticwcet), the CRPD and
// cache-persistence machinery (internal/crpd, internal/persistence),
// the contention and response-time analysis itself (internal/core),
// the synthetic Mälardalen-like benchmark suite (internal/benchsuite),
// the task-set generator (internal/taskgen), a cycle-accurate
// multicore simulator used for validation (internal/sim), and the
// harness that regenerates every figure and table of the paper
// (internal/experiments).
package buscon

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

// Re-exported model types: see package taskmodel for field
// documentation.
type (
	// Time is the model's abstract time unit ("cycles").
	Time = taskmodel.Time
	// Task is one sporadic constrained-deadline task.
	Task = taskmodel.Task
	// TaskSet couples a platform with the tasks partitioned onto it.
	TaskSet = taskmodel.TaskSet
	// Platform describes cores, caches and the shared bus.
	Platform = taskmodel.Platform
	// CacheConfig is the geometry of a core-private direct-mapped
	// cache.
	CacheConfig = taskmodel.CacheConfig
)

// Re-exported analysis types: see internal/core.
type (
	// Arbiter selects the bus arbitration policy.
	Arbiter = core.Arbiter
	// AnalysisConfig selects arbiter, persistence awareness and the
	// CRPD/CPRO approaches.
	AnalysisConfig = core.Config
	// Result is a whole-task-set analysis outcome.
	Result = core.Result
	// TaskResult is one task's verdict and WCRT bound.
	TaskResult = core.TaskResult
)

// Bus arbitration policies.
const (
	// FP is the work-conserving fixed-priority bus (Eq. 7).
	FP = core.FP
	// RR is the work-conserving Round-Robin bus (Eq. 8).
	RR = core.RR
	// TDMA is the non-work-conserving TDMA bus (Eq. 9).
	TDMA = core.TDMA
	// Perfect is the contention-free reference bus of Fig. 2.
	Perfect = core.Perfect
	// Regulated is the MemGuard-style bandwidth-regulated bus: per-core
	// budgets of Platform.RegBudget accesses, replenished every
	// Platform.RegPeriod cycles, with dynamic reclaim.
	Regulated = core.Regulated
	// ParAware is the parallelism-aware per-access bound: each access
	// waits for at most one in-flight request per other core.
	ParAware = core.ParAware
)

// Arbiters returns every declared arbiter, in declaration order.
func Arbiters() []Arbiter { return core.Arbiters() }

// Re-exported generation types: see internal/taskgen.
type (
	// GenConfig parameterises random task-set generation.
	GenConfig = taskgen.Config
	// BenchmarkParams are per-benchmark task parameters.
	BenchmarkParams = taskgen.TaskParams
)

// DefaultPlatform returns the paper's default platform: 4 cores, a
// 256-set 32-byte-block private L1 instruction cache per core,
// d_mem = 5 and RR/TDMA slot size 2.
func DefaultPlatform() Platform {
	return taskgen.DefaultConfig().Platform
}

// Analyze runs the WCRT analysis of Eq. (19) for the task set under
// the given configuration and reports per-task bounds and overall
// schedulability.
func Analyze(ts *TaskSet, cfg AnalysisConfig) (*Result, error) {
	return core.Analyze(ts, cfg, core.Options{})
}

// BatchRequest pairs one task set with the configurations to analyse
// it under; see AnalyzeBatch.
type BatchRequest = core.BatchRequest

// AnalyzeAll analyses one task set under several configurations,
// sharing the precomputed interference tables (γ, CPRO overlaps, task
// partitions) across configurations with a common CRPD approach. It is
// the cheapest way to run the paper's six-variant comparison on a
// task set.
func AnalyzeAll(ts *TaskSet, cfgs []AnalysisConfig) ([]*Result, error) {
	return core.AnalyzeAll(ts, cfgs)
}

// AnalyzeBatch runs many AnalyzeAll requests on a bounded worker pool
// (workers <= 0 selects GOMAXPROCS) and returns one result slice per
// request, in request order. The experiment sweeps are built on it.
func AnalyzeBatch(reqs []BatchRequest, workers int) ([][]*Result, error) {
	return core.AnalyzeBatchOpts(reqs, core.BatchOptions{Workers: workers})
}

// NewTaskSet wraps tasks and a platform, sorting by priority.
func NewTaskSet(p Platform, tasks []*Task) *TaskSet {
	return taskmodel.NewTaskSet(p, tasks)
}

// BenchmarkPool extracts the built-in synthetic benchmark suite at the
// given cache geometry, producing the parameter pool that
// GenerateTaskSet draws from.
func BenchmarkPool(cache CacheConfig) ([]BenchmarkParams, error) {
	return taskgen.PoolFromSuite(cache)
}

// GenerateTaskSet builds one random task set the way the paper's
// evaluation does (UUnifast utilizations, deadline-monotonic
// priorities, T = D).
func GenerateTaskSet(cfg GenConfig, pool []BenchmarkParams, rng *rand.Rand) (*TaskSet, error) {
	return taskgen.Generate(cfg, pool, rng)
}

// --- extended tooling re-exports ---------------------------------------------

// Explanation decomposes one task's WCRT bound (see internal/core).
type Explanation = core.Explanation

// Explain runs the analysis and decomposes the bound of the task with
// the given priority: same-core demand per interfering task (plain vs
// persistence-aware, CRPD, CPRO), remote-core contributions, blocking
// and total bus time.
func Explain(ts *TaskSet, cfg AnalysisConfig, priority int) (*Explanation, error) {
	return core.Explain(ts, cfg, priority)
}

// MaxDMem returns the largest memory access time at which the task set
// remains schedulable under cfg (0 if unschedulable even at 1); see
// internal/core for search details.
func MaxDMem(ts *TaskSet, cfg AnalysisConfig, limit Time) (Time, error) {
	return core.MaxDMem(ts, cfg, limit, core.Options{})
}

// CriticalScaling returns the smallest period/deadline scaling factor
// at which the task set is schedulable under cfg: below 1 quantifies
// headroom, above 1 the missing slack.
func CriticalScaling(ts *TaskSet, cfg AnalysisConfig, tol float64) (float64, error) {
	return core.CriticalScaling(ts, cfg, tol, core.Options{})
}

// SimulationResult summarises a validation run of the cycle-accurate
// simulator against a task set whose tasks are drawn from the built-in
// benchmark suite.
type SimulationResult struct {
	// MaxResponse maps each priority to the largest observed response
	// time.
	MaxResponse map[int]Time
	// DeadlineMisses counts observed misses across all tasks.
	DeadlineMisses int64
	// BusAccesses is the number of bus transactions served.
	BusAccesses int64
	// Cycles is the simulated horizon.
	Cycles Time
}

// SimulateSuite runs the cycle-accurate simulator for a task set whose
// task names refer to built-in benchmarks (as produced by
// GenerateTaskSet with a BenchmarkPool): each task executes the very
// program its parameters were extracted from. The horizon covers
// roughly `jobs` jobs of the longest-period task. It is the public
// entry point to the soundness validation the repository's tests
// perform: observed response times should stay below Analyze's WCRT
// bounds. Binding and horizon come from the campaign driver in
// internal/sim. Perfect has no bus to simulate and is rejected with an
// error.
func SimulateSuite(ts *TaskSet, arbiter Arbiter, jobs int) (*SimulationResult, error) {
	w, err := sim.NewWorkload(ts, jobs)
	if err != nil {
		return nil, fmt.Errorf("buscon: %w", err)
	}
	res, err := sim.Run(ts.Platform, w.Bindings, sim.Config{Policy: arbiter, Horizon: w.Horizon})
	if err != nil {
		return nil, err
	}
	out := &SimulationResult{
		MaxResponse: map[int]Time{},
		BusAccesses: res.BusServe,
		Cycles:      res.Cycles,
	}
	for prio, st := range res.Tasks {
		out.MaxResponse[prio] = st.MaxResponse
		out.DeadlineMisses += st.DeadlineMisses
	}
	return out, nil
}
