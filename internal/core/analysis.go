// Package core implements the paper's contribution: memory-bus
// contention analysis for partitioned fixed-priority multicore systems
// under FP, Round-Robin and TDMA bus arbitration, with and without
// cache persistence awareness, and the resulting worst-case response
// time (WCRT) analysis.
//
// Equation map (numbers refer to the paper):
//
//	BAS   — Eq. (1), same-core bus accesses, CRPD-inflated
//	B̂AS  — Lemma 1 (Eq. 16), persistence-aware same-core accesses
//	BAO   — Eq. (3)–(6), remote-core bus accesses with carry-out
//	B̂AO  — Lemma 2 (Eq. 17–18), persistence-aware remote accesses
//	BAT   — Eq. (7) FP bus, Eq. (8) RR bus, Eq. (9) TDMA bus
//	WCRT  — Eq. (19), fixed point with an outer loop over all tasks
//
// The "+1" blocking term of Eq. (7)–(9) is charged exactly when the
// core under analysis hosts at least one lower-priority task, matching
// the paper's remark below Eq. (12) that the term vanishes for the
// lowest-priority task of the core.
//
// Each equation has one fast implementation and one naive oracle. The
// Analyzer evaluates them as breakpoint curves (curves.go) built from
// precomputed interference tables (tables.go): all cache-set work is
// hoisted out of the fixed-point iteration, which then runs on integer
// arithmetic only. Reference (reference.go) recomputes everything
// directly; the differential test asserts both produce bit-identical
// results, and the paper's worked example is read from its per-term
// accessors.
package core

import (
	"fmt"
	"sync"

	"repro/internal/crpd"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// Arbiter selects the memory bus arbitration policy under analysis.
type Arbiter int

const (
	// FP is the work-conserving fixed-priority bus (Eq. 7): bus
	// requests inherit the priority of the issuing task.
	FP Arbiter = iota
	// RR is the work-conserving Round-Robin bus (Eq. 8) with s memory
	// access slots per core.
	RR
	// TDMA is the non-work-conserving time-division bus (Eq. 9) with a
	// cycle of NumCores×s slots.
	TDMA
	// Perfect is the idealized contention-free bus used as the upper
	// bound in Fig. 2: tasks still pay d_mem per own-core access, but
	// suffer no cross-core interference; the task set must additionally
	// keep total bus utilization at or below one.
	Perfect
	// Regulated is a MemGuard-style bandwidth-regulated bus (Agrawal et
	// al.): each core holds a budget of Q = RegBudget accesses
	// replenished every P = RegPeriod cycles, budgeted requests have
	// strict priority over out-of-budget ones, and unused bandwidth is
	// dynamically reclaimed round-robin (one access per grant). A window
	// of length t overlaps at most ⌈t/P⌉+1 replenishment periods, so a
	// remote core injects at most (⌈t/P⌉+1)·Q budgeted accesses plus, by
	// the slot-1 round robin of the reclaim class, one reclaimed access
	// per own access — min(BAO, regCap(t) + BAS) per remote core.
	Regulated
	// ParAware is the parallelism-aware per-access bound (Yun et al.):
	// with one outstanding request per core served oldest-class
	// round-robin one access at a time, each own access waits for at
	// most one in-flight request per other core — min(BAO, BAS) per
	// remote core, i.e. Eq. (8) with slot size pinned to 1.
	ParAware
)

// Arbiters returns every declared arbiter, in declaration order — the
// iteration domain of completeness tests and sweep grids.
func Arbiters() []Arbiter {
	return []Arbiter{FP, RR, TDMA, Perfect, Regulated, ParAware}
}

func (a Arbiter) String() string {
	switch a {
	case FP:
		return "FP"
	case RR:
		return "RR"
	case TDMA:
		return "TDMA"
	case Perfect:
		return "Perfect"
	case Regulated:
		return "Regulated"
	case ParAware:
		return "ParAware"
	default:
		return fmt.Sprintf("Arbiter(%d)", int(a))
	}
}

// Config selects the analysis variant.
type Config struct {
	// Arbiter is the bus arbitration policy.
	Arbiter Arbiter
	// Persistence enables Lemmas 1 and 2 (the paper's contribution);
	// disabled, the analysis reduces to the baseline of Davis et al.
	Persistence bool
	// CRPD selects the preemption-delay bound; the paper uses ECBUnion.
	CRPD crpd.Approach
	// CPRO selects the persistence-reload accounting; the paper uses
	// Union. Ignored unless Persistence is set.
	CPRO persistence.CPROApproach
	// MaxOuterIterations caps the outer fixed-point loop (safety net;
	// the loop is monotone and terminates on its own). Zero means
	// DefaultMaxOuterIterations.
	MaxOuterIterations int
}

// DefaultMaxOuterIterations is the outer-loop cap a zero
// Config.MaxOuterIterations selects. Both engines run with it and the
// canonical key normalizes to it, so the two spellings of the default
// share one key.
const DefaultMaxOuterIterations = 64

// DefaultConfig returns the paper's configuration for the given
// arbiter: ECB-union CRPD, CPRO-union, persistence on.
func DefaultConfig(arb Arbiter, persistence bool) Config {
	return Config{Arbiter: arb, Persistence: persistence}
}

// ValidateFor reports the first problem that makes the configuration
// unanalyzable against the platform: an Arbiter, CRPD or CPRO value
// outside the declared enums (possible when a numeric config arrives
// from a newer peer or a careless caller — the engine switches must
// never see one), or a Regulated configuration on a platform that
// carries no regulation parameters. Every analysis entry point runs it,
// so malformed enum values surface as errors, not panics.
func (c Config) ValidateFor(p taskmodel.Platform) error {
	if c.Arbiter < FP || c.Arbiter > ParAware {
		return fmt.Errorf("core: unknown arbiter %v", c.Arbiter)
	}
	if c.CRPD < crpd.ECBUnion || c.CRPD > crpd.Combined {
		return fmt.Errorf("core: unknown CRPD approach %d", int(c.CRPD))
	}
	if c.CPRO < persistence.Union || c.CPRO > persistence.None {
		return fmt.Errorf("core: unknown CPRO approach %d", int(c.CPRO))
	}
	if c.MaxOuterIterations < 0 {
		return fmt.Errorf("core: negative MaxOuterIterations %d", c.MaxOuterIterations)
	}
	if c.Arbiter == Regulated && (p.RegBudget < 1 || p.RegPeriod < 1) {
		return fmt.Errorf("core: regulated arbiter needs platform RegBudget >= 1 and RegPeriod >= 1 (got Q=%d P=%d)", p.RegBudget, p.RegPeriod)
	}
	return nil
}

// regCapAt is the budgeted-access cap of the regulated bus: a window of
// length t overlaps at most ⌈t/P⌉+1 replenishment periods, each
// granting at most Q budgeted accesses per core. Shared by the engine
// and the oracle so both charge the same cap.
func regCapAt(p taskmodel.Platform, t taskmodel.Time) int64 {
	return (ceilDiv(int64(t), int64(p.RegPeriod)) + 1) * p.RegBudget
}

// TaskResult reports the analysis outcome for one task.
type TaskResult struct {
	Name     string
	Priority int
	Core     int
	WCRT     taskmodel.Time // converged bound only if Verified
	Deadline taskmodel.Time
	// Schedulable reports whether the task is proven to meet its
	// deadline. When the analysis aborts early (Result.Complete false),
	// tasks whose response times never converged are conservatively
	// reported not schedulable: nothing was proven about them.
	Schedulable bool
	// Verified reports whether the analysis finished judging this task:
	// either its WCRT converged at or below the deadline (Schedulable),
	// or it provably misses its deadline. Unverified tasks carry the
	// mid-iteration estimate in WCRT — a lower bound on the true WCRT,
	// not a final bound.
	Verified bool
}

// Result is the outcome of a whole-task-set analysis.
type Result struct {
	Schedulable bool
	Tasks       []TaskResult
	// Complete reports whether every task's response time converged.
	// Following the paper, the fixed point aborts as soon as any task
	// provably misses its deadline; in that case the WCRT estimates of
	// the remaining tasks are lower bounds still mid-iteration, not
	// final bounds, and Complete is false.
	Complete        bool
	OuterIterations int
}

// Analyzer evaluates the bus contention and response-time equations
// for one task set under one configuration. The response-time
// estimates R (indexed by priority) feed the remote-interference terms
// N and W_cout; Run maintains them via the outer fixed-point loop, and
// a caller probing a single level (the OPA search) may set them before
// calling ResponseTime.
type Analyzer struct {
	TS  *taskmodel.TaskSet
	Cfg Config
	// R holds the current response-time estimate per priority value.
	R map[int]taskmodel.Time

	tab *tables
	// fps holds each level's persistent cursor state of the
	// event-driven fixed point (curves.go); fp points at the state of
	// the level currently under analysis. Reuse across ResponseTime
	// calls makes the inner loop allocation-free and lets re-analyses
	// resume instead of rebuild.
	fps []fpState
	fp  *fpState
	// rd mirrors R densely by table index while Run is executing
	// (rdLive); the reset path reads thousands of remote estimates per
	// analysis and the map hashing would dominate it. Callers that
	// write R directly and invoke ResponseTime themselves (the OPA
	// probe, tests) bypass the mirror and read the map.
	rd     []taskmodel.Time
	rdLive bool
	// obs receives telemetry; nil (the default) disables every hook —
	// all hot-path instrumentation sits behind a single nil check.
	obs *telemetry.Observer
}

// NewAnalyzer validates the task set and prepares an analyzer with
// response times initialized to PD_i + MD_i·d_mem, the paper's
// fixed-point seed.
func NewAnalyzer(ts *taskmodel.TaskSet, cfg Config) (*Analyzer, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return newAnalyzerWithTables(ts, cfg, precomputeTables(ts, cfg.CRPD))
}

// newAnalyzerWithTables is NewAnalyzer reusing previously computed
// interference tables, so repeated analyses of the same task set — or
// of clones differing only in d_mem, which none of the cached terms
// depend on — skip the cache-set work entirely. The tables' CRPD
// approach must match cfg and the task set must be compatible with the
// one the tables were built for.
func newAnalyzerWithTables(ts *taskmodel.TaskSet, cfg Config, tbl *tables) (*Analyzer, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.ValidateFor(ts.Platform); err != nil {
		return nil, err
	}
	if tbl.crpd != cfg.CRPD {
		return nil, fmt.Errorf("core: tables built for CRPD %v, config wants %v", tbl.crpd, cfg.CRPD)
	}
	if err := tbl.compatible(ts); err != nil {
		return nil, err
	}
	return newAnalyzerChecked(ts, cfg, tbl), nil
}

// newAnalyzerChecked skips the validation and compatibility checks for
// callers that already performed them (AnalyzeAll runs one validation
// for the whole config list and builds the tables from ts itself).
func newAnalyzerChecked(ts *taskmodel.TaskSet, cfg Config, tbl *tables) *Analyzer {
	if cfg.MaxOuterIterations == 0 {
		cfg.MaxOuterIterations = DefaultMaxOuterIterations
	}
	a := &Analyzer{
		TS:  ts,
		Cfg: cfg,
		R:   make(map[int]taskmodel.Time, len(ts.Tasks)),
		tab: tbl,
	}
	for _, t := range ts.Tasks {
		a.R[t.Priority] = t.PD + taskmodel.Time(t.MD)*ts.Platform.DMem
	}
	return a
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) != (b > 0) {
		q--
	}
	return q
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ResponseTime runs the inner fixed point of Eq. (19) for the
// priority-i task with the current remote response-time estimates. It
// returns the WCRT and true, or the deadline-exceeding estimate and
// false. The iteration starts from the larger of the seed
// PD_i + MD_i·d_mem and the current estimate R[i] (the outer loop is
// monotone, so restarting lower would waste iterations).
//
// The iteration is event-driven (curves.go): every interference term
// is tracked as a breakpoint curve whose cursor only moves forward, so
// re-evaluating the recurrence after the first pass costs only the
// breakpoints actually crossed, and an iterate that crosses none
// terminates the loop immediately. The iterate chain — and with it
// every returned value, including the deadline-exceeding abort
// estimate — is exactly the naive chain of AnalyzeReference.
func (a *Analyzer) ResponseTime(i int) (taskmodel.Time, bool) {
	ii, known := a.tab.prioIdx[i]
	if !known {
		// Nothing can be proven about a priority outside the set.
		return 0, false
	}
	return a.analyzeTask(ii)
}

// analyzeTask is ResponseTime for the task at table index ii, with its
// telemetry; Run calls it directly, by the index it iterates with.
func (a *Analyzer) analyzeTask(ii int) (taskmodel.Time, bool) {
	obs := a.obs
	if obs == nil {
		r, ok, _, _ := a.responseTime(ii, nil)
		return r, ok
	}
	obs.Add(telemetry.CtrTaskAnalyses, 1)
	var sp telemetry.Span
	if obs.Tracing() {
		sp = obs.Span("task "+a.tab.tasks[ii].Name, "task")
	}
	r, ok, iters, jumps := a.responseTime(ii, nil)
	obs.Add(telemetry.CtrInnerIterations, iters)
	obs.Add(telemetry.CtrBreakpointJumps, jumps)
	obs.Observe(telemetry.HistInnerIters, iters)
	if obs.Tracing() {
		sp.EndArgs(map[string]any{"prio": a.tab.tasks[ii].Priority, "wcrt": int64(r), "converged": ok, "iterations": iters})
	}
	return r, ok
}

// responseTime is the ResponseTime body for the task at table index
// ii, additionally reporting the number of inner iterates and whether
// the loop terminated via the breakpoint jump — the telemetry
// wrapper's raw material. A non-nil trace receives each iterate with
// its dominant term, up to maxTraceSteps; only Explain passes one.
func (a *Analyzer) responseTime(ii int, trace *[]TraceStep) (taskmodel.Time, bool, int64, int64) {
	ti := a.tab.tasks[ii]
	dmem := a.TS.Platform.DMem
	r := ti.PD + taskmodel.Time(ti.MD)*dmem
	var cur taskmodel.Time
	if a.rdLive {
		cur = a.rd[ii]
	} else {
		cur = a.R[ti.Priority]
	}
	if cur > r {
		r = cur
	}
	a.fpReset(ii, ti.Core, r)
	hasLP := a.tab.hasLP(ii)
	var iters int64
	for {
		iters++
		bt := a.fpTerms(ti.MD, hasLP)
		next := ti.PD + a.fp.procSum + taskmodel.Time(bt.bat)*dmem
		if trace != nil && len(*trace) < maxTraceSteps {
			*trace = append(*trace, TraceStep{R: max(next, r), Dominant: a.dominantTerm(bt)})
		}
		if next > ti.Deadline {
			return next, false, iters, 0
		}
		if next == r {
			return r, true, iters, 0
		}
		if next < r {
			// The recurrence is monotone in r; a decrease can only come
			// from starting above the least fixed point (stale outer
			// estimate), in which case the current r remains a valid
			// bound.
			return r, true, iters, 0
		}
		if next < a.fp.minNext {
			// Breakpoint jump: no interference term changes in
			// (r, next], so f is constant there and f(next) = f(r) =
			// next — next is the least fixed point (≤ the deadline,
			// checked above). This is where whole stretches of the
			// naive chain collapse into one step. The cursors stay
			// valid at next, where the outer loop will resume.
			a.fp.at = next
			return next, true, iters, 1
		}
		a.fpAdvance(next)
		r = next
	}
}

// perfectBusUtil is the long-run bus utilization the perfect-bus
// reference is gated on. Without persistence it is Σ MD·d_mem/T; with
// persistence each task's steady per-job demand is the tighter
// min(MD, MD^r + CPRO), where CPRO covers the persistent blocks its
// same-core neighbours can evict between jobs.
func (a *Analyzer) perfectBusUtil() float64 {
	u := 0.0
	for jj, t := range a.tab.tasks {
		demand := t.MD
		if a.Cfg.Persistence {
			// hep(lowest priority) spans every task, so the slot of each
			// core's whole task list holds the steady-state CPRO terms;
			// jj sits last in its own hep prefix.
			y := t.Core
			cpro := a.tab.cproCol(y, len(a.tab.byCore[y]), a.obs)
			if aware := t.MDr + cpro[a.tab.hepCount(jj, y)-1].unionOverlap; aware < demand {
				demand = aware
			}
		}
		u += float64(taskmodel.Time(demand)*a.TS.Platform.DMem) / float64(t.Period)
	}
	return u
}

// Run executes the outer fixed-point loop of the paper: response times
// of all tasks are recomputed until globally stable, since each task's
// bound feeds the remote-interference terms of the others. It stops
// early as soon as any task provably misses its deadline.
//
// The loop is incremental: a task is re-evaluated only while marked
// dirty, and a changed R[l] re-dirties exactly the tasks whose
// recurrences may read it — tasks on other cores (the remote
// N/W_cout terms) plus lower-priority tasks of the same core (a
// conservative superset; same-core recurrences read only periods and
// demands). Because the skipped tasks would have recomputed their
// current, already-converged values, the iteration visits the same
// states — and aborts at the same point — as the full re-evaluation
// performed by AnalyzeReference.
func (a *Analyzer) Run() *Result {
	obs := a.obs
	if obs == nil {
		return a.run()
	}
	obs.Add(telemetry.CtrRuns, 1)
	var sp telemetry.Span
	if obs.Tracing() {
		sp = obs.Span("analyze "+a.Cfg.label(), "analyzer")
	}
	res := a.run()
	obs.Observe(telemetry.HistOuterRounds, int64(res.OuterIterations))
	if res.Complete {
		obs.Add(telemetry.CtrRunsCompleted, 1)
	}
	if obs.Tracing() {
		sp.EndArgs(map[string]any{
			"tasks":       len(res.Tasks),
			"schedulable": res.Schedulable,
			"rounds":      res.OuterIterations,
		})
	}
	return res
}

func (a *Analyzer) run() *Result {
	res := &Result{Schedulable: true, Complete: true}
	if a.Cfg.Arbiter == Perfect && a.perfectBusUtil() > 1.0 {
		if a.obs != nil {
			a.obs.Add(telemetry.CtrAbortBusOverload, 1)
		}
		// The perfect-bus reference additionally requires the bus not to
		// be overloaded. The gate is a final verdict — no per-task fixed
		// point is attempted.
		res.Schedulable = false
		for _, t := range a.TS.Tasks {
			res.Tasks = append(res.Tasks, TaskResult{
				Name: t.Name, Priority: t.Priority, Core: t.Core,
				Deadline: t.Deadline, Schedulable: false, Verified: true,
			})
		}
		return res
	}
	dirty := make([]bool, len(a.TS.Tasks))
	for i := range dirty {
		dirty[i] = true
	}
	// Activate the dense response-time mirror for the duration of the
	// loop; entry points that seed R directly keep using the map.
	if cap(a.rd) < len(a.TS.Tasks) {
		a.rd = make([]taskmodel.Time, len(a.TS.Tasks))
	}
	a.rd = a.rd[:len(a.TS.Tasks)]
	for idx, t := range a.TS.Tasks {
		a.rd[idx] = a.R[t.Priority]
	}
	a.rdLive = true
	defer func() { a.rdLive = false }()
	converged := false
	for iter := 0; iter < a.Cfg.MaxOuterIterations; iter++ {
		res.OuterIterations = iter + 1
		if a.obs != nil {
			a.obs.Add(telemetry.CtrOuterRounds, 1)
		}
		changed := false
		for idx, t := range a.TS.Tasks {
			if !dirty[idx] {
				continue
			}
			dirty[idx] = false
			r, ok := a.analyzeTask(idx)
			if !ok {
				a.R[t.Priority] = r
				a.rd[idx] = r
				return a.fail(res, t.Priority, true)
			}
			if r != a.rd[idx] {
				a.R[t.Priority] = r
				a.rd[idx] = r
				changed = true
				a.markDependents(idx, dirty)
			}
		}
		if !changed {
			converged = true
			break
		}
	}
	if !converged {
		// The outer fixed point did not stabilise within the iteration
		// budget; claiming schedulability would be unsound, and nothing
		// was proven about any individual task.
		return a.fail(res, a.TS.LowestPriority(), false)
	}
	res.Tasks = make([]TaskResult, 0, len(a.TS.Tasks))
	for _, t := range a.TS.Tasks {
		res.Tasks = append(res.Tasks, TaskResult{
			Name: t.Name, Priority: t.Priority, Core: t.Core,
			WCRT: a.R[t.Priority], Deadline: t.Deadline,
			Schedulable: true, Verified: true,
		})
	}
	return res
}

// markDependents flags every task whose response-time recurrence may
// read R[idx]: tasks on other cores, plus same-core lower-priority
// tasks as a conservative margin.
func (a *Analyzer) markDependents(idx int, dirty []bool) {
	// The per-core index columns are priority-ascending like the table,
	// so a same-core task of lower priority is one with a larger index.
	own := a.tab.tasks[idx].Core
	for y, idxs := range a.tab.coreIdx {
		for _, j := range idxs {
			if y != own || int(j) > idx {
				dirty[j] = true
			}
		}
	}
}

// fail finalizes a result after the analysis aborted: either the task
// at priority failPrio provably missed its deadline (proven), or the
// iteration budget ran out (not proven). Every task is reported not
// schedulable — the abort leaves their bounds mid-iteration, so no
// schedulability claim holds — and only a proven deadline miss is
// marked Verified.
func (a *Analyzer) fail(res *Result, failPrio int, proven bool) *Result {
	if a.obs != nil {
		if proven {
			a.obs.Add(telemetry.CtrAbortDeadlineMiss, 1)
		} else {
			a.obs.Add(telemetry.CtrAbortNonConvergence, 1)
		}
	}
	res.Schedulable = false
	res.Complete = false
	res.Tasks = make([]TaskResult, 0, len(a.TS.Tasks))
	for _, t := range a.TS.Tasks {
		res.Tasks = append(res.Tasks, TaskResult{
			Name: t.Name, Priority: t.Priority, Core: t.Core,
			WCRT: a.R[t.Priority], Deadline: t.Deadline,
			Schedulable: false,
			Verified:    proven && t.Priority == failPrio,
		})
	}
	return res
}

// Analyze is the one-call entry point: run the full fixed point for one
// configuration, reporting to opts.Observer and sharing opts.Memo.
func Analyze(ts *taskmodel.TaskSet, cfg Config, opts Options) (*Result, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.ValidateFor(ts.Platform); err != nil {
		return nil, err
	}
	return analyzeChecked(ts, []Config{cfg}, opts.Observer, opts.Memo)[0], nil
}

// AnalyzeAll analyzes one task set under several configurations,
// sharing the precomputed interference tables between configurations
// with the same CRPD approach (the cached terms do not depend on the
// arbiter, the persistence switch or the CPRO approach). Results are
// returned in cfgs order.
func AnalyzeAll(ts *taskmodel.TaskSet, cfgs []Config) ([]*Result, error) {
	return analyzeAllObs(ts, cfgs, nil, nil)
}

// analysisScratch pools the per-request mutable memory across
// analyzeChecked calls (and, through them, across AnalyzeBatchOpts
// jobs): cursor states, the dense response-time mirror, the tables'
// slot array and, for memo-less requests, the table arena that
// columns, curve backbones and evictor lists are carved from. The
// delta warm path reuses the first three; the cold path, which builds
// every backbone itself, reuses all four, so a Fig. 2/3 sweep stops
// reallocating its engine scratch for every task set. Everything handed
// out is fully re-initialized before use, so pooling cannot leak state
// between task sets, and nothing pooled is reachable from a Result.
type analysisScratch struct {
	fps   []fpState
	rd    []taskmodel.Time
	slots []slot
	arena tableArena
}

var scratchPool = sync.Pool{New: func() any { return new(analysisScratch) }}

// takeFPS returns n cursor states with their inner slices retained but
// every entry invalidated — fpReset's rebuild path reconstructs all
// remaining state.
func (sc *analysisScratch) takeFPS(n int) []fpState {
	if cap(sc.fps) < n {
		sc.fps = make([]fpState, n)
	}
	sc.fps = sc.fps[:cap(sc.fps)]
	fps := sc.fps[:n]
	for i := range fps {
		fps[i].valid = false
	}
	return fps
}

// takeRD returns the n-entry response-time mirror; run() overwrites
// every slot before reading it.
func (sc *analysisScratch) takeRD(n int) []taskmodel.Time {
	return fit(&sc.rd, n)
}

// takeSlots returns n empty slots. The previous request's columns and
// backbones are dropped: they may alias store-shared slices or its
// arena.
func (sc *analysisScratch) takeSlots(n int) []slot {
	s := fit(&sc.slots, n)
	clear(s)
	return s
}

// takeArena sizes the pooled arena for tb's request from the slot
// layout (layoutSize) and returns a fresh view of it. Persistence-aware
// configurations run first, so no backbone is rebuilt at a deeper
// level. CPRO columns and evictor lists get slabs only when persist is
// set — some configuration of the request is persistence-aware. The
// layout's evictor bound is cubic in |Γ_y|, so that slab is capped at
// evictorsPerEntry per CPRO entry and the arena stays quadratic like
// the columns. A request that outgrows a bound stays correct: carve
// refills or makes the rest.
func (sc *analysisScratch) takeArena(tb *tables, persist bool) tableArena {
	l := tb.layout
	ar := tableArena{gamma: fit(&sc.arena.gamma, l.gamma), terms: fit(&sc.arena.terms, l.terms)}
	if persist {
		ar.cpro = fit(&sc.arena.cpro, l.cpro)
		ar.evictors = fit(&sc.arena.evictors, min(l.evictors, evictorsPerEntry*l.cpro))
	}
	return ar
}

// evictorsPerEntry caps the arena's evictor slab at this many entries
// per CPRO column entry. The paper's task sets (eight tasks per core)
// need at most (|Γ_y|−1)/2 = 3.5, so a Fig. 2/3 sweep carves every
// list; denser sets take the rest from the heap.
const evictorsPerEntry = 4

// fit returns the first n elements of *buf, replacing it with an
// n-element allocation when it is too small. Callers overwrite (or
// carve re-zeroes) what they use.
func fit[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

func analyzeAllObs(ts *taskmodel.TaskSet, cfgs []Config, obs *telemetry.Observer, memo *MemoStore) ([]*Result, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	for i, cfg := range cfgs {
		if err := cfg.ValidateFor(ts.Platform); err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
	}
	return analyzeChecked(ts, cfgs, obs, memo), nil
}

// analyzeChecked is analyzeAllObs after validation: ts and every
// configuration have passed their checks.
func analyzeChecked(ts *taskmodel.TaskSet, cfgs []Config, obs *telemetry.Observer, memo *MemoStore) []*Result {
	n := len(ts.Tasks)
	scratch := scratchPool.Get().(*analysisScratch)
	defer scratchPool.Put(scratch)
	byCRPD := make(map[crpd.Approach]*tables)
	out := make([]*Result, len(cfgs))
	// Persistence-enabled configurations run first (results still land
	// in cfgs order): the first touch of each curve then materializes
	// its backbone at CPRO depth, a superset of γ depth, so the
	// persistence-oblivious configurations that follow hit the
	// intra-tables warm path instead of paying a second store
	// round-trip for the γ-depth backbone of the same prefix.
	order := make([]int, 0, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Persistence {
			order = append(order, i)
		}
	}
	for i, cfg := range cfgs {
		if !cfg.Persistence {
			order = append(order, i)
		}
	}
	first := true
	for _, i := range order {
		cfg := cfgs[i]
		tbl, ok := byCRPD[cfg.CRPD]
		if !ok {
			tbl = precomputeTables(ts, cfg.CRPD)
			tbl.setMemo(memo)
			if first {
				// The pooled slots and arena serve one tables only — the
				// columns and backbones differ across CRPD approaches.
				// Additional tables (rare in one request) allocate their
				// own lazily. With a memo attached, backbones and evictor
				// lists are published to the store and outlive the
				// request, so they stay on the heap. Persistence-aware
				// configurations run first, so this one's flag says
				// whether any needs CPRO columns.
				tbl.slots = scratch.takeSlots(n + ts.Platform.NumCores)
				if memo == nil {
					tbl.ar = scratch.takeArena(tbl, cfg.Persistence)
				}
				first = false
			}
			byCRPD[cfg.CRPD] = tbl
		}
		// The set was validated above and the tables were built from it,
		// so the per-analyzer checks are redundant. The configurations run
		// sequentially, so handing every analyzer the same pooled cursor
		// arrays is safe: takeFPS invalidates all entries between configs.
		a := newAnalyzerChecked(ts, cfg, tbl)
		a.obs = obs
		a.fps = scratch.takeFPS(n)
		a.rd = scratch.takeRD(n)
		out[i] = a.Run()
	}
	return out
}
