package core

import (
	"repro/internal/crpd"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
)

// Reference implementation: the direct, recompute-everything evaluation
// of Eq. (1)–(19). Every task-pair quantity (γ, the CPRO overlaps, the
// hp/hep/lp slices) is rebuilt from the task model on each use, and the
// outer loop re-evaluates every task in every round. It is the one
// naive oracle of the package: the differential test checks the curve
// engine's Results against AnalyzeReference bit for bit, the worked
// example of Section IV reads its per-term values from the BAS, BAO and
// BAT accessors, and the Explain tests check the engine's decomposition
// against BAT. Do not use it for real workloads — that is the point.

// Reference evaluates the equations for one task set under one
// configuration with nothing cached but γ.
type Reference struct {
	ts  *taskmodel.TaskSet
	cfg Config
	// R holds the response-time estimate per priority value feeding the
	// remote-interference terms N and W_cout. NewReference seeds it with
	// PD_i + MD_i·d_mem; callers may set entries directly to evaluate the
	// per-term accessors at chosen estimates.
	R map[int]taskmodel.Time

	gammaMemo map[refGammaKey]int64
}

// NewReference validates the task set and configuration and returns
// the oracle with response times at the paper's fixed-point seed.
func NewReference(ts *taskmodel.TaskSet, cfg Config) (*Reference, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.ValidateFor(ts.Platform); err != nil {
		return nil, err
	}
	if cfg.MaxOuterIterations == 0 {
		cfg.MaxOuterIterations = DefaultMaxOuterIterations
	}
	a := &Reference{
		ts:        ts,
		cfg:       cfg,
		R:         make(map[int]taskmodel.Time, len(ts.Tasks)),
		gammaMemo: make(map[refGammaKey]int64),
	}
	for _, t := range ts.Tasks {
		a.R[t.Priority] = t.PD + taskmodel.Time(t.MD)*ts.Platform.DMem
	}
	return a, nil
}

type refGammaKey struct{ i, j, core int }

func (a *Reference) gamma(i, j, core int) int64 {
	k := refGammaKey{i, j, core}
	if g, ok := a.gammaMemo[k]; ok {
		return g
	}
	g := crpd.Gamma(a.ts, a.cfg.CRPD, i, j, core)
	a.gammaMemo[k] = g
	return g
}

// BAS bounds the bus accesses generated on core x by one job of the
// priority-i task plus all higher-priority tasks of that core in a
// window of length t: Eq. (1), or B̂AS of Lemma 1 (Eq. 16) with
// persistence enabled.
func (a *Reference) BAS(i, core int, t taskmodel.Time) int64 {
	ti := a.ts.ByPriority(i)
	total := ti.MD
	for _, tj := range a.ts.HP(i, core) {
		ej := ceilDiv(int64(t), int64(tj.Period))
		g := a.gamma(i, tj.Priority, core)
		if a.cfg.Persistence {
			total += persistence.PersistentDemandWindow(a.ts, a.cfg.CPRO, tj.Priority, i, core, ej, t)
		} else {
			total += ej * tj.MD
		}
		total += ej * g
	}
	return total
}

func (a *Reference) njobs(k int, tl *taskmodel.Task, t taskmodel.Time) int64 {
	g := a.gamma(k, tl.Priority, tl.Core)
	num := int64(t) + int64(a.R[tl.Priority]) - (tl.MD+g)*int64(a.ts.Platform.DMem)
	n := floorDiv(num, int64(tl.Period))
	if n < 0 {
		return 0
	}
	return n
}

func (a *Reference) wcout(k int, tl *taskmodel.Task, t taskmodel.Time, n int64) int64 {
	g := a.gamma(k, tl.Priority, tl.Core)
	dmem := int64(a.ts.Platform.DMem)
	num := int64(t) + int64(a.R[tl.Priority]) - (tl.MD+g)*dmem - n*int64(tl.Period)
	w := ceilDiv(num, dmem)
	if w < 0 {
		return 0
	}
	return min64(w, tl.MD+g)
}

func (a *Reference) contrib(k int, tl *taskmodel.Task, t taskmodel.Time) int64 {
	n := a.njobs(k, tl, t)
	g := a.gamma(k, tl.Priority, tl.Core)
	var w int64
	if a.cfg.Persistence {
		w = persistence.PersistentDemandWindow(a.ts, a.cfg.CPRO, tl.Priority, k, tl.Core, n, t) + n*g
	} else {
		w = n * (tl.MD + g)
	}
	return w + a.wcout(k, tl, t, n)
}

// BAO bounds the bus accesses generated on remote core y by all tasks
// of priority k or higher in a window of length t: Eq. (3), or B̂AO of
// Lemma 2 with persistence enabled.
func (a *Reference) BAO(k, y int, t taskmodel.Time) int64 {
	var total int64
	for _, tl := range a.ts.HEP(k, y) {
		total += a.contrib(k, tl, t)
	}
	return total
}

func (a *Reference) baoLow(i, y int, t taskmodel.Time) int64 {
	var total int64
	for _, tl := range a.ts.LP(i, y) {
		total += a.contrib(i, tl, t)
	}
	return total
}

func (a *Reference) plus1(i, core int) int64 {
	if len(a.ts.LP(i, core)) > 0 {
		return 1
	}
	return 0
}

// BAT bounds the bus accesses that may delay the priority-i task on its
// core in a window of length t under the configured arbiter: Eq. (7)
// FP, Eq. (8) RR, Eq. (9) TDMA, own accesses only for Perfect, and the
// Regulated and ParAware per-core clamps.
func (a *Reference) BAT(i int, t taskmodel.Time) int64 {
	ti := a.ts.ByPriority(i)
	core := ti.Core
	bas := a.BAS(i, core, t)
	switch a.cfg.Arbiter {
	case Perfect:
		return bas
	case FP:
		total := bas + a.plus1(i, core)
		var low int64
		for y := 0; y < a.ts.Platform.NumCores; y++ {
			if y == core {
				continue
			}
			total += a.BAO(i, y, t)
			low += a.baoLow(i, y, t)
		}
		return total + min64(bas, low)
	case RR:
		s := int64(a.ts.Platform.SlotSize)
		n := a.ts.LowestPriority()
		total := bas + a.plus1(i, core)
		for y := 0; y < a.ts.Platform.NumCores; y++ {
			if y == core {
				continue
			}
			total += min64(a.BAO(n, y, t), s*bas)
		}
		return total
	case TDMA:
		s := int64(a.ts.Platform.SlotSize)
		l := int64(a.ts.Platform.NumCores)
		return bas + (l-1)*s*bas + a.plus1(i, core)
	case Regulated:
		n := a.ts.LowestPriority()
		rc := regCapAt(a.ts.Platform, t)
		total := bas + a.plus1(i, core)
		for y := 0; y < a.ts.Platform.NumCores; y++ {
			if y == core {
				continue
			}
			total += min64(a.BAO(n, y, t), rc+bas)
		}
		return total
	case ParAware:
		n := a.ts.LowestPriority()
		total := bas + a.plus1(i, core)
		for y := 0; y < a.ts.Platform.NumCores; y++ {
			if y == core {
				continue
			}
			total += min64(a.BAO(n, y, t), bas)
		}
		return total
	default:
		panic("core: unknown arbiter")
	}
}

func (a *Reference) responseTime(i int) (taskmodel.Time, bool) {
	ti := a.ts.ByPriority(i)
	dmem := a.ts.Platform.DMem
	r := ti.PD + taskmodel.Time(ti.MD)*dmem
	if cur := a.R[i]; cur > r {
		r = cur
	}
	for {
		var interference taskmodel.Time
		for _, tj := range a.ts.HP(i, ti.Core) {
			interference += taskmodel.Time(ceilDiv(int64(r), int64(tj.Period))) * tj.PD
		}
		next := ti.PD + interference + taskmodel.Time(a.BAT(i, r))*dmem
		if next > ti.Deadline {
			return next, false
		}
		if next <= r {
			return r, true
		}
		r = next
	}
}

func (a *Reference) perfectBusUtil() float64 {
	u := 0.0
	for _, t := range a.ts.Tasks {
		demand := t.MD
		if a.cfg.Persistence {
			evictable := int64(t.PCB.IntersectCount(persistence.EvictingUnion(
				a.ts, a.ts.LowestPriority(), t.Priority, t.Core)))
			if aware := t.MDr + evictable; aware < demand {
				demand = aware
			}
		}
		u += float64(taskmodel.Time(demand)*a.ts.Platform.DMem) / float64(t.Period)
	}
	return u
}

func (a *Reference) fail(res *Result, failPrio int, proven bool) *Result {
	res.Schedulable = false
	res.Complete = false
	for _, t := range a.ts.Tasks {
		res.Tasks = append(res.Tasks, TaskResult{
			Name: t.Name, Priority: t.Priority, Core: t.Core,
			WCRT: a.R[t.Priority], Deadline: t.Deadline,
			Schedulable: false,
			Verified:    proven && t.Priority == failPrio,
		})
	}
	return res
}

func (a *Reference) run() *Result {
	res := &Result{Schedulable: true, Complete: true}
	if a.cfg.Arbiter == Perfect && a.perfectBusUtil() > 1.0 {
		res.Schedulable = false
		for _, t := range a.ts.Tasks {
			res.Tasks = append(res.Tasks, TaskResult{
				Name: t.Name, Priority: t.Priority, Core: t.Core,
				Deadline: t.Deadline, Schedulable: false, Verified: true,
			})
		}
		return res
	}
	converged := false
	for iter := 0; iter < a.cfg.MaxOuterIterations; iter++ {
		res.OuterIterations = iter + 1
		changed := false
		for _, t := range a.ts.Tasks {
			r, ok := a.responseTime(t.Priority)
			if !ok {
				a.R[t.Priority] = r
				return a.fail(res, t.Priority, true)
			}
			if r != a.R[t.Priority] {
				a.R[t.Priority] = r
				changed = true
			}
		}
		if !changed {
			converged = true
			break
		}
	}
	if !converged {
		return a.fail(res, a.ts.LowestPriority(), false)
	}
	for _, t := range a.ts.Tasks {
		res.Tasks = append(res.Tasks, TaskResult{
			Name: t.Name, Priority: t.Priority, Core: t.Core,
			WCRT: a.R[t.Priority], Deadline: t.Deadline,
			Schedulable: true, Verified: true,
		})
	}
	return res
}

// AnalyzeReference runs the full analysis on the oracle. It always
// returns results bit-identical to Analyze.
func AnalyzeReference(ts *taskmodel.TaskSet, cfg Config) (*Result, error) {
	a, err := NewReference(ts, cfg)
	if err != nil {
		return nil, err
	}
	return a.run(), nil
}
