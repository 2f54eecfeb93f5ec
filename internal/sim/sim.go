// Package sim is a cycle-accurate discrete simulator of the paper's
// platform model: m cores with private direct-mapped instruction
// caches, partitioned fixed-priority preemptive scheduling per core,
// and a shared memory bus under FP, RR, TDMA, Regulated or ParAware
// arbitration.
//
// Tasks execute real programs (package program): every block reference
// consults the core's cache, and misses become bus transactions of
// d_mem cycles. Preemptions therefore cause genuine cache reloads
// (CRPD) and interleaved tasks genuinely evict each other's persistent
// blocks (CPRO) — nothing is charged analytically. The simulator's
// observed response times validate the analytical WCRT bounds from
// package core: analysis ≥ simulation on every run.
//
// Semantics matching the analysis model:
//
//   - A cache hit costs no extra time (PD already covers execution).
//   - A miss stalls the job for exactly the bus queueing delay plus
//     d_mem service.
//   - An in-service bus transaction is non-preemptive: a newly released
//     higher-priority job waits for it (the analysis's "+1" term). A
//     pending-but-unserved request of a preempted job is withdrawn and
//     reissued when the job resumes.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/taskmodel"
)

// TaskBinding couples a task's model parameters with the program whose
// trace its jobs execute.
type TaskBinding struct {
	Task *taskmodel.Task
	Prog *program.Program
}

// Config parameterises one simulation run.
type Config struct {
	// Policy is the bus arbiter: FP, RR, TDMA, Regulated or ParAware.
	Policy core.Arbiter
	// Horizon is the number of cycles to simulate.
	Horizon taskmodel.Time
	// Offsets optionally delays the first release of each task
	// (indexed by priority). Absent entries release at time zero
	// (synchronous, the classical critical instant).
	Offsets map[int]taskmodel.Time
	// ArrivalJitter > 0 makes releases sporadic: each inter-arrival
	// time is T plus a uniform random extra of up to ArrivalJitter×T.
	// The sporadic model guarantees only a minimum separation of T, so
	// analytical bounds must still hold under any jitter.
	ArrivalJitter float64
	// Seed drives the sporadic arrival randomness (ignored when
	// ArrivalJitter is zero).
	Seed int64
	// Trace, when non-nil, receives every simulator event (releases,
	// misses, bus grants, preemptions, completions).
	Trace Tracer
}

// TaskStats aggregates per-task observations. MaxResponse is over the
// completed jobs; UnfinishedAge is the largest Horizon+1−release over
// the jobs still unfinished at the horizon, a lower bound on their
// response times. DeadlineMisses counts the completed jobs that missed
// their deadline and the unfinished ones whose deadline is before
// Horizon+1.
type TaskStats struct {
	Name            string
	Priority        int
	Core            int
	Released        int64
	Completed       int64
	MaxResponse     taskmodel.Time
	UnfinishedAge   taskmodel.Time
	DeadlineMisses  int64
	Misses          int64 // bus transactions actually served (L2 misses)
	Hits            int64 // L1 hits
	L2Hits          int64 // L1 misses satisfied by the L2
	MaxMissesPerJob int64
}

// Result is the outcome of a simulation run.
type Result struct {
	Tasks    map[int]*TaskStats // by priority
	BusBusy  int64
	Cycles   taskmodel.Time
	BusServe int64
}

// job is one active invocation of a task.
type job struct {
	binding  *TaskBinding
	stats    *TaskStats
	release  taskmodel.Time
	deadline taskmodel.Time
	trace    []program.TraceStep
	pos      int   // next trace step
	compute  int64 // remaining compute cycles of the current step
	stall    int64 // remaining L2-hit latency cycles
	fetched  bool  // current step's block is available
	waiting  bool  // blocked on an outstanding bus transaction
	misses   int64
}

func (j *job) done() bool { return j.pos >= len(j.trace) && j.compute == 0 }

// coreState is the per-core scheduler and cache hierarchy.
type coreState struct {
	cache *cachesim.Cache
	l2    *cachesim.Cache // nil without a second level
	dl2   int64           // L1-miss/L2-hit latency
	ready []*job          // ordered by priority (ascending value first)
}

func (c *coreState) insert(j *job) {
	i := sort.Search(len(c.ready), func(k int) bool {
		return c.ready[k].binding.Task.Priority > j.binding.Task.Priority
	})
	c.ready = append(c.ready, nil)
	copy(c.ready[i+1:], c.ready[i:])
	c.ready[i] = j
}

func (c *coreState) remove(j *job) {
	for i, r := range c.ready {
		if r == j {
			c.ready = append(c.ready[:i], c.ready[i+1:]...)
			return
		}
	}
}

// Run simulates the bound task set for the configured horizon.
func Run(plat taskmodel.Platform, bindings []TaskBinding, cfg Config) (*Result, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: horizon %d, need > 0", cfg.Horizon)
	}
	switch cfg.Policy {
	case core.FP, core.RR, core.TDMA, core.Regulated, core.ParAware:
	default:
		return nil, fmt.Errorf("sim: no bus model for arbiter %v", cfg.Policy)
	}
	for i := range bindings {
		if bindings[i].Task == nil || bindings[i].Prog == nil {
			return nil, fmt.Errorf("sim: binding %d missing task or program", i)
		}
		if err := bindings[i].Prog.Validate(); err != nil {
			return nil, fmt.Errorf("sim: binding %d: %w", i, err)
		}
		if bindings[i].Task.Core < 0 || bindings[i].Task.Core >= plat.NumCores {
			return nil, fmt.Errorf("sim: task %q on core %d of %d", bindings[i].Task.Name, bindings[i].Task.Core, plat.NumCores)
		}
	}

	cores := make([]*coreState, plat.NumCores)
	for i := range cores {
		cores[i] = &coreState{cache: cachesim.New(plat.Cache)}
		if plat.HasL2() {
			cores[i].l2 = cachesim.New(plat.L2)
			cores[i].dl2 = int64(plat.DL2)
		}
	}
	if cfg.Policy == core.Regulated && (plat.RegBudget < 1 || plat.RegPeriod < 1) {
		return nil, fmt.Errorf("sim: regulated policy needs platform RegBudget >= 1 and RegPeriod >= 1 (got Q=%d P=%d)", plat.RegBudget, plat.RegPeriod)
	}
	b := newBus(cfg.Policy, plat.NumCores, plat.SlotSize, int64(plat.DMem), plat.RegBudget, int64(plat.RegPeriod))

	res := &Result{Tasks: map[int]*TaskStats{}, Cycles: cfg.Horizon}
	for i := range bindings {
		t := bindings[i].Task
		res.Tasks[t.Priority] = &TaskStats{Name: t.Name, Priority: t.Priority, Core: t.Core}
	}

	// Traces are immutable and shared by all jobs of a binding.
	traces := make([][]program.TraceStep, len(bindings))
	for i := range bindings {
		traces[i] = bindings[i].Prog.Trace(0)
	}

	// waitingJob[c] is the job whose bus transaction is outstanding
	// (pending or in service) on core c.
	waitingJob := make([]*job, plat.NumCores)

	// nextRelease tracks each task's upcoming arrival; sporadic mode
	// stretches inter-arrival times beyond the minimum T.
	rng := rand.New(rand.NewSource(cfg.Seed))
	nextRelease := make([]taskmodel.Time, len(bindings))
	for i := range bindings {
		nextRelease[i] = cfg.Offsets[bindings[i].Task.Priority]
	}
	interArrival := func(t *taskmodel.Task) taskmodel.Time {
		maxExtra := int64(cfg.ArrivalJitter * float64(t.Period))
		if maxExtra <= 0 { // periodic, or no room to stretch
			return t.Period
		}
		return t.Period + taskmodel.Time(rng.Int63n(maxExtra+1))
	}

	for now := taskmodel.Time(0); now < cfg.Horizon; now++ {
		// 1. Releases.
		for i := range bindings {
			if now != nextRelease[i] {
				continue
			}
			t := bindings[i].Task
			nextRelease[i] = now + interArrival(t)
			st := res.Tasks[t.Priority]
			st.Released++
			nj := &job{
				binding:  &bindings[i],
				stats:    st,
				release:  now,
				deadline: now + t.Deadline,
				trace:    traces[i],
			}
			c := cores[t.Core]
			preempted := len(c.ready) > 0 && c.ready[0].binding.Task.Priority > t.Priority
			c.insert(nj)
			emit(cfg.Trace, Event{Time: now, Kind: EvRelease, Task: t.Name, Priority: t.Priority, Core: t.Core})
			if preempted {
				old := c.ready[1]
				emit(cfg.Trace, Event{
					Time: now, Kind: EvPreempt,
					Task: old.binding.Task.Name, Priority: old.binding.Task.Priority,
					Core: t.Core, Value: int64(t.Priority),
				})
			}
		}

		// 2. Core execution: each core runs its highest-priority ready
		// job for this cycle, issuing bus requests on misses.
		for ci, c := range cores {
			if len(c.ready) == 0 {
				continue
			}
			j := c.ready[0]
			if j.waiting {
				continue // stalled on its own outstanding fetch
			}
			if w := waitingJob[ci]; w != nil && w != j {
				// A preempted job's fetch is outstanding. An in-service
				// transaction is non-preemptive: the core stalls (the
				// "+1" blocking of Eq. 7-9). A merely pending request is
				// withdrawn; the job will reissue it when it resumes.
				if b.inService(ci) {
					continue
				}
				if b.cancel(ci) {
					w.waiting = false
					waitingJob[ci] = nil
				} else {
					continue // completion lands this cycle; stall once more
				}
			}
			c.step(j, ci, b, res, waitingJob, now, cfg.Trace)
		}

		// 3. Bus progress: requests submitted this cycle may begin
		// service immediately; a completing transaction unblocks its
		// job for the next cycle.
		if done := b.tick(); done != nil {
			c := cores[done.core]
			c.cache.Install(done.block)
			if c.l2 != nil {
				c.l2.Install(done.block)
			}
			emit(cfg.Trace, Event{
				Time: now, Kind: EvBusComplete, Core: done.core,
				Task: res.Tasks[done.priority].Name, Priority: done.priority,
				Value: int64(done.block),
			})
			if w := waitingJob[done.core]; w != nil {
				w.waiting = false
				w.fetched = true
				w.misses++
				w.stats.Misses++
				if w.misses > w.stats.MaxMissesPerJob {
					w.stats.MaxMissesPerJob = w.misses
				}
				waitingJob[done.core] = nil
			}
		}
	}

	// A job still pending at the horizon completes at the end of cycle
	// Horizon or later.
	end := cfg.Horizon + 1
	for _, c := range cores {
		for _, j := range c.ready {
			if age := end - j.release; age > j.stats.UnfinishedAge {
				j.stats.UnfinishedAge = age
			}
			if end > j.deadline {
				j.stats.DeadlineMisses++
			}
		}
	}
	res.BusBusy = b.busyTime
	res.BusServe = b.served
	return res, nil
}

// step advances job j by one cycle of core time: it resolves as many
// zero-cost cache hits as needed, spends one compute cycle or issues
// one bus request, and retires the job when its trace is exhausted.
func (c *coreState) step(j *job, ci int, b *bus, res *Result, waitingJob []*job, now taskmodel.Time, tr Tracer) {
	for {
		if j.stall > 0 {
			j.stall--
			return // burning L2-hit latency; completion cannot happen yet
		}
		if j.compute > 0 {
			j.compute--
			break
		}
		if j.pos >= len(j.trace) {
			break
		}
		step := j.trace[j.pos]
		if !j.fetched {
			if c.cache.Lookup(step.Block) {
				j.stats.Hits++
				j.fetched = true
			} else if c.l2 != nil && c.l2.Lookup(step.Block) {
				// L1 miss, L2 hit: refresh LRU, fill L1, pay DL2 locally.
				// The current cycle counts as the first latency cycle.
				c.l2.Access(step.Block)
				c.cache.Install(step.Block)
				j.stats.L2Hits++
				emit(tr, Event{
					Time: now, Kind: EvL2Hit, Core: ci,
					Task: j.binding.Task.Name, Priority: j.binding.Task.Priority,
					Value: int64(step.Block),
				})
				j.fetched = true
				if c.dl2 > 1 {
					j.stall = c.dl2 - 1
					return
				}
				continue
			} else {
				j.waiting = true
				waitingJob[ci] = j
				b.submit(request{core: ci, block: step.Block, priority: j.binding.Task.Priority})
				emit(tr, Event{
					Time: now, Kind: EvMissBus, Core: ci,
					Task: j.binding.Task.Name, Priority: j.binding.Task.Priority,
					Value: int64(step.Block),
				})
				return
			}
		}
		// Block available: charge its execution cost.
		j.compute = step.Cycles
		j.pos++
		j.fetched = false
		if j.compute > 0 {
			j.compute--
			break
		}
		// Zero-cost step: resolve the next one within this cycle.
	}
	if j.done() {
		j.stats.Completed++
		resp := now + 1 - j.release
		if resp > j.stats.MaxResponse {
			j.stats.MaxResponse = resp
		}
		kind := EvComplete
		if now+1 > j.deadline {
			j.stats.DeadlineMisses++
			kind = EvDeadlineMiss
		}
		emit(tr, Event{
			Time: now + 1, Kind: kind, Core: ci,
			Task: j.binding.Task.Name, Priority: j.binding.Task.Priority,
			Value: int64(resp),
		})
		c.remove(j)
	}
}

// HorizonForJobs returns a horizon long enough for roughly k jobs of
// the longest-period task. A degenerate task set — no bindings, no
// positive period, or k < 1 — would silently yield a zero horizon and
// a "simulation" that observes nothing, so it panics with a clear
// message instead; a horizon that overflows int64 saturates at
// math.MaxInt64 rather than wrapping negative.
func HorizonForJobs(tasks []TaskBinding, k int) taskmodel.Time {
	if k < 1 {
		panic(fmt.Sprintf("sim: HorizonForJobs: k = %d jobs, need >= 1", k))
	}
	var maxT taskmodel.Time
	for _, b := range tasks {
		if b.Task.Period > maxT {
			maxT = b.Task.Period
		}
	}
	if maxT <= 0 {
		panic("sim: HorizonForJobs: no task with a positive period (a zero horizon would simulate nothing)")
	}
	if maxT > math.MaxInt64/taskmodel.Time(k) {
		return math.MaxInt64
	}
	return maxT * taskmodel.Time(k)
}
