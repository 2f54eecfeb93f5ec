package core

import (
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"repro/internal/taskmodel"
)

// Explainability: decompose a task's WCRT bound into the terms of
// Eq. (19) so an engineer can see where the bus time goes — which
// higher-priority task contributes how many accesses, how much CRPD
// and CPRO cost, and what each remote core injects.

// SameCoreTerm is one higher-priority task's contribution to BAS
// (Eq. 1 / Lemma 1) at the converged response time.
type SameCoreTerm struct {
	Task string
	// Jobs is E_j(R) = ⌈R/T_j⌉.
	Jobs int64
	// PlainDemand is the persistence-oblivious E_j·MD_j.
	PlainDemand int64
	// AwareDemand is min(E_j·MD_j, M̂D_j(E_j) + ρ̂_{j,i,x}(E_j)); equals
	// PlainDemand when the analysis runs without persistence.
	AwareDemand int64
	// CRPD is E_j·γ_{i,j,x}.
	CRPD int64
	// CPRO is ρ̂_{j,i,x}(E_j) (zero without persistence).
	CPRO int64
}

// RemoteCoreTerm is one remote core's aggregate BAO contribution.
type RemoteCoreTerm struct {
	Core int
	// Accesses is the BAO bound actually charged by the arbiter
	// formula (after the RR min-clamp, for example).
	Accesses int64
	// Raw is the unclamped BAO bound.
	Raw int64
}

// Explanation decomposes one task's converged WCRT bound.
type Explanation struct {
	Task     string
	Priority int
	Core     int
	// WCRT is the converged bound; Schedulable mirrors the verdict.
	WCRT        taskmodel.Time
	Schedulable bool

	// PD is the task's own execution demand; OwnMD its own accesses.
	PD    taskmodel.Time
	OwnMD int64
	// CorePreemption is Σ ⌈R/T_j⌉·PD_j, the processor-time interference.
	CorePreemption taskmodel.Time
	// SameCore breaks down BAS − MD_i.
	SameCore []SameCoreTerm
	// BAS is the full same-core access bound.
	BAS int64
	// Remote lists per-core BAO contributions (empty for Perfect/TDMA).
	Remote []RemoteCoreTerm
	// SlotWait is the TDMA slot-waiting term (m−1)·s·BAS of Eq. (9);
	// zero for the other arbiters. With it, the decomposition
	// BAS + SlotWait + Σ Remote.Accesses + Blocking equals BAT for
	// every arbiter.
	SlotWait int64
	// Blocking is the +1 term (and, for FP, the low-priority min term).
	Blocking int64
	// BAT is the total access bound; BusTime = BAT·d_mem.
	BAT     int64
	BusTime taskmodel.Time

	// Iterations and Jumps count the inner fixed point's iterates and
	// breakpoint jumps (0 or 1) when Explain replays it from the seed
	// PD + MD·d_mem at the other tasks' final estimates; Trace holds the
	// first maxTraceSteps iterates. All three stay zero when no fixed
	// point ran (the Perfect bus-overload gate).
	Iterations int64
	Jumps      int64
	Trace      []TraceStep
}

// TraceStep is one inner iterate: the value R the iteration holds after
// the step, and the interference term that dominated f at the previous
// iterate r. R is f(r), or r itself where f(r) < r: the iteration then
// stops, since r remains a valid bound (see responseTime).
type TraceStep struct {
	R        taskmodel.Time
	Dominant string
}

// maxTraceSteps bounds Explanation.Trace. The event-driven iteration
// takes at most one step per breakpoint region, so real chains are far
// shorter.
const maxTraceSteps = 4096

// Explain runs the full analysis and decomposes the bound of the task
// with the given priority at its converged response time. The
// decomposition is read from the engine itself: the level's cursors are
// re-seated at the converged bound and split by the same per-arbiter
// combine the fixed point iterated (fpTerms), so it adds up to BAT by
// construction. The trace replays the engine's own responseTime from the
// task's seed at the other tasks' final estimates. It ends at the
// reported bound unless the outer loop kept a higher estimate from an
// earlier round (the carry-out terms are not monotone in the remote
// estimates) or, in an aborted run, the estimates are mid-iteration.
func Explain(ts *taskmodel.TaskSet, cfg Config, prio int) (*Explanation, error) {
	a, err := NewAnalyzer(ts, cfg)
	if err != nil {
		return nil, err
	}
	ii, ok := a.tab.prioIdx[prio]
	if !ok {
		return nil, fmt.Errorf("core: no task with priority %d", prio)
	}
	// res.Tasks follows ts.Tasks, as do the table indices.
	res := a.Run()
	ti := a.tab.tasks[ii]
	r := a.R[prio]
	a.fpReset(ii, ti.Core, r)
	s := a.fp
	bt := a.fpTerms(ti.MD, a.tab.hasLP(ii))

	ex := &Explanation{
		Task:           ti.Name,
		Priority:       prio,
		Core:           ti.Core,
		WCRT:           r,
		Schedulable:    res.Tasks[ii].Schedulable && res.Complete,
		PD:             ti.PD,
		OwnMD:          ti.MD,
		CorePreemption: s.procSum,
		BAS:            bt.bas,
		SlotWait:       bt.slotWait,
		Blocking:       bt.blocking,
		BAT:            bt.bat,
		BusTime:        taskmodel.Time(bt.bat) * ts.Platform.DMem,
	}
	hp := a.tab.hp(ii)
	for k := range s.same {
		cur := &s.same[k]
		tc := cur.tc
		e := ceilDiv(int64(r), int64(tc.period))
		term := SameCoreTerm{
			Task:        hp[k].t.Name,
			Jobs:        e,
			PlainDemand: e * tc.md,
			CRPD:        e * tc.gamma,
		}
		term.AwareDemand = cur.basVal - term.CRPD
		if cfg.Persistence {
			term.CPRO = a.rhoCurve(tc, e, r)
		}
		ex.SameCore = append(ex.SameCore, term)
	}
	for y, acc := range bt.remote {
		if y != ti.Core {
			ex.Remote = append(ex.Remote, RemoteCoreTerm{Core: y, Accesses: acc, Raw: s.baoSum[y]})
		}
	}
	if res.OuterIterations > 0 {
		// Restart from the seed; responseTime starts at the larger of the
		// seed and the task's own estimate.
		a.R[prio] = ti.PD + taskmodel.Time(ti.MD)*ts.Platform.DMem
		_, _, ex.Iterations, ex.Jumps = a.responseTime(ii, &ex.Trace)
	}
	return ex, nil
}

// Render prints the explanation as a human-readable report.
func (e *Explanation) Render(w io.Writer) error {
	fmt.Fprintf(w, "task %s (priority %d, core %d)\n", e.Task, e.Priority, e.Core)
	verdict := "schedulable"
	if !e.Schedulable {
		verdict = "NOT schedulable (bound below is the last estimate)"
	}
	fmt.Fprintf(w, "  WCRT bound: %d  — %s\n", e.WCRT, verdict)
	fmt.Fprintf(w, "  own execution PD = %d, own accesses MD = %d\n", e.PD, e.OwnMD)
	fmt.Fprintf(w, "  processor preemption time: %d\n", e.CorePreemption)
	if len(e.SameCore) > 0 {
		fmt.Fprintln(w, "  same-core bus demand (Eq. 1 / Lemma 1):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "    task\tjobs\tplain\taware\tCRPD\tCPRO")
		for _, t := range e.SameCore {
			fmt.Fprintf(tw, "    %s\t%d\t%d\t%d\t%d\t%d\n",
				t.Task, t.Jobs, t.PlainDemand, t.AwareDemand, t.CRPD, t.CPRO)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "  BAS (same-core accesses incl. own): %d\n", e.BAS)
	for _, rc := range e.Remote {
		clamp := ""
		if rc.Accesses != rc.Raw {
			clamp = fmt.Sprintf(" (clamped from %d)", rc.Raw)
		}
		fmt.Fprintf(w, "  remote core %d: %d accesses%s\n", rc.Core, rc.Accesses, clamp)
	}
	if e.SlotWait > 0 {
		fmt.Fprintf(w, "  TDMA slot waiting: %d\n", e.SlotWait)
	}
	fmt.Fprintf(w, "  blocking term: %d\n", e.Blocking)
	fmt.Fprintf(w, "  BAT total accesses: %d  -> bus time %d\n", e.BAT, e.BusTime)
	return e.RenderTrace(w)
}

// RenderTrace prints the replayed fixed point: the iterate count and
// the iterate chain, naming the dominant term wherever it changes.
// Without a fixed point (the Perfect bus-overload gate) it prints
// nothing.
func (e *Explanation) RenderTrace(w io.Writer) error {
	if e.Iterations == 0 {
		return nil
	}
	note := ""
	if !e.Schedulable {
		note = ", replayed at the abort-time estimates"
	} else if last := e.Trace[len(e.Trace)-1].R; last != e.WCRT {
		note = fmt.Sprintf(", replay from the seed ends at %d, below the bound", last)
	}
	if int64(len(e.Trace)) < e.Iterations {
		note += fmt.Sprintf(", first %d shown", len(e.Trace))
	}
	fmt.Fprintf(w, "  fixed point: %d iterations, %d breakpoint jumps%s\n    ", e.Iterations, e.Jumps, note)
	prev := ""
	for i, st := range e.Trace {
		if i > 0 {
			fmt.Fprint(w, " -> ")
		}
		fmt.Fprint(w, st.R)
		if st.Dominant != prev {
			fmt.Fprintf(w, " [%s]", st.Dominant)
			prev = st.Dominant
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// dominantTerm names the largest interference term of the recurrence
// right-hand side at the current cursor state: the argmax over the
// Explanation fields CorePreemption, BAS, Remote[y] (ascending y),
// SlotWait and Blocking, in that order, the first maximum winning.
// Access terms are compared in time units (accesses × d_mem) so they
// are commensurable with the processor-preemption sum; the task's own
// PD is demand, not interference, and is excluded; the own core's zero
// remote entry never wins. Only trace recording calls it.
func (a *Analyzer) dominantTerm(bt batTerms) string {
	dmem := int64(a.TS.Platform.DMem)
	best, bestV := "CorePreemption", int64(a.fp.procSum)
	if v := bt.bas * dmem; v > bestV {
		best, bestV = "BAS", v
	}
	for y, acc := range bt.remote {
		if v := acc * dmem; v > bestV {
			best, bestV = "Remote["+strconv.Itoa(y)+"]", v
		}
	}
	if v := bt.slotWait * dmem; v > bestV {
		best, bestV = "SlotWait", v
	}
	if v := bt.blocking * dmem; v > bestV {
		best = "Blocking"
	}
	return best
}
