package sim

// The campaign driver: cmd/simulate (one workload), cmd/validate (a
// campaign), buscon.SimulateSuite (a caller's task set) and the
// soundness tests take their benchmark pool, task-program bindings,
// release modes and claim rule from here.
//
// The claim rule: a result claims its WCRTs as bounds exactly when it
// is Schedulable, and then claims every task's. This equals "every
// Schedulable task of a Complete result": the analysis marks all tasks
// Schedulable (converged, Complete) or none (aborted, not Complete),
// and the only Complete result without a Schedulable task is Perfect's
// bus-overload gate, which is never simulated. A violation is an
// observed response above the bound or an observed deadline miss; the
// second implies the first, since observed ≤ WCRT ≤ D leaves no room
// for a miss.

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

// SmallBenchmarks are the suite programs whose traces keep simulated
// horizons short; the bigger members (nsichneu, statemate, bsort100...)
// produce million-cycle jobs that only make sense for a job or two.
var SmallBenchmarks = []string{"lcdnum", "cnt", "qurt", "crc", "jfdctint", "ns", "edn"}

// Pool extracts the named suite benchmarks at the cache geometry, in
// the order given: taskgen.Generate draws pool entries by index, so the
// order is part of every generated workload.
func Pool(names []string, cache taskmodel.CacheConfig) ([]taskgen.TaskParams, error) {
	pool := make([]taskgen.TaskParams, 0, len(names))
	for _, name := range names {
		b, err := benchsuite.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := benchsuite.Extract(b, cache)
		if err != nil {
			return nil, err
		}
		r := p.Result
		pool = append(pool, taskgen.TaskParams{
			Name: name, PD: r.PD, MD: r.MD, MDr: r.MDr,
			UCB: r.UCB, ECB: r.ECB, PCB: r.PCB,
		})
	}
	return pool, nil
}

// A Workload is a task set whose tasks are bound to the suite programs
// they are named after, with the horizon its simulations run for.
type Workload struct {
	TaskSet  *taskmodel.TaskSet
	Bindings []TaskBinding
	Horizon  taskmodel.Time
}

// NewWorkload binds each task of ts to the suite program of its name,
// so each task executes the program its parameters were extracted
// from, over a horizon of about jobs jobs of the longest-period task.
func NewWorkload(ts *taskmodel.TaskSet, jobs int) (*Workload, error) {
	bindings := make([]TaskBinding, 0, len(ts.Tasks))
	for _, t := range ts.Tasks {
		b, err := benchsuite.ByName(t.Name)
		if err != nil {
			return nil, fmt.Errorf("task %q is not a suite benchmark: %w", t.Name, err)
		}
		bindings = append(bindings, TaskBinding{Task: t, Prog: b.Prog})
	}
	return &Workload{TaskSet: ts, Bindings: bindings, Horizon: HorizonForJobs(bindings, jobs)}, nil
}

// GenerateWorkload draws the task set of seed from pool, as
// taskgen.Generate does under rand.NewSource(seed), and binds it.
func GenerateWorkload(gen taskgen.Config, pool []taskgen.TaskParams, seed int64, jobs int) (*Workload, error) {
	ts, err := taskgen.Generate(gen, pool, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return NewWorkload(ts, jobs)
}

// Offsets returns release offsets (Config.Offsets) that delay the
// first release of w's i-th task, in priority order, by at(i).
func (w *Workload) Offsets(at func(i int64) taskmodel.Time) map[int]taskmodel.Time {
	offsets := make(map[int]taskmodel.Time, len(w.TaskSet.Tasks))
	for i, t := range w.TaskSet.Tasks {
		offsets[t.Priority] = at(int64(i))
	}
	return offsets
}

// Modes returns the campaign's release modes of the workload drawn with
// seed, over its horizon and with no policy set: synchronous (the
// classical critical instant), sporadic with the given jitter when
// jitter > 0, and first releases offset by (seed·131 + i·89) mod 400.
func (w *Workload) Modes(seed int64, jitter float64) []Config {
	modes := []Config{{Horizon: w.Horizon}}
	if jitter > 0 {
		modes = append(modes, Config{Horizon: w.Horizon, ArrivalJitter: jitter, Seed: seed})
	}
	offsets := w.Offsets(func(i int64) taskmodel.Time { return taskmodel.Time((seed*131 + i*89) % 400) })
	return append(modes, Config{Horizon: w.Horizon, Offsets: offsets})
}

// A Violation is a claimed bound that a simulation broke.
type Violation struct {
	Task           string
	Observed       taskmodel.Time // largest observed response time
	Bound          taskmodel.Time // the claimed WCRT
	DeadlineMisses int64
}

// Check applies the claim rule (see the top of this file) to res and
// compares each claimed bound with obs, a simulation of the same task
// set. It returns how many bounds it compared and the violations among
// them.
func Check(res *core.Result, obs *Result) (checked int, vs []Violation) {
	if !res.Schedulable {
		return 0, nil
	}
	for _, tr := range res.Tasks {
		st := obs.Tasks[tr.Priority]
		if st.MaxResponse > tr.WCRT || st.DeadlineMisses > 0 {
			vs = append(vs, Violation{Task: st.Name, Observed: st.MaxResponse, Bound: tr.WCRT, DeadlineMisses: st.DeadlineMisses})
		}
	}
	return len(res.Tasks), vs
}

// Sweep analyses w once under each configuration of analyses, then
// simulates w in every mode under each analysed arbiter, in the order
// the arbiters first appear, and passes visit the Check of every
// analysis of that arbiter against the run.
func (w *Workload) Sweep(analyses []core.Config, modes []Config, visit func(mode Config, ana core.Config, checked int, vs []Violation)) error {
	results := make([]*core.Result, len(analyses))
	for k, ana := range analyses {
		res, err := core.Analyze(w.TaskSet, ana, core.Options{})
		if err != nil {
			return err
		}
		results[k] = res
	}
	var arbiters []core.Arbiter
	for _, ana := range analyses {
		if !slices.Contains(arbiters, ana.Arbiter) {
			arbiters = append(arbiters, ana.Arbiter)
		}
	}
	for _, arb := range arbiters {
		for _, mode := range modes {
			mode.Policy = arb
			obs, err := Run(w.TaskSet.Platform, w.Bindings, mode)
			if err != nil {
				return err
			}
			for k, ana := range analyses {
				if ana.Arbiter == arb {
					checked, vs := Check(results[k], obs)
					visit(mode, ana, checked, vs)
				}
			}
		}
	}
	return nil
}
