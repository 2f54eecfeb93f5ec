package core

import (
	"fmt"

	"repro/internal/taskmodel"
)

// Sensitivity analysis: instead of a yes/no verdict, locate the edge
// of schedulability along one model axis. Both searches treat the
// analysis as a black box and verify the reported edge explicitly, so
// they remain correct even where the underlying bounds are not
// perfectly monotone (see the W_cout discussion in the package tests).

// cloneScaled returns a copy of ts with every period and deadline
// multiplied by k (rounded up), leaving demands untouched.
func cloneScaled(ts *taskmodel.TaskSet, k float64) *taskmodel.TaskSet {
	tasks := make([]*taskmodel.Task, len(ts.Tasks))
	for i, t := range ts.Tasks {
		c := *t
		c.Period = taskmodel.Time(float64(t.Period)*k + 0.999999)
		c.Deadline = taskmodel.Time(float64(t.Deadline)*k + 0.999999)
		if c.Period < 1 {
			c.Period = 1
		}
		if c.Deadline < 1 {
			c.Deadline = 1
		}
		if c.Deadline > c.Period {
			c.Deadline = c.Period
		}
		tasks[i] = &c
	}
	return taskmodel.NewTaskSet(ts.Platform, tasks)
}

// cloneWithDMem returns a copy of ts with the platform's d_mem
// replaced.
func cloneWithDMem(ts *taskmodel.TaskSet, dmem taskmodel.Time) *taskmodel.TaskSet {
	tasks := make([]*taskmodel.Task, len(ts.Tasks))
	for i, t := range ts.Tasks {
		c := *t
		tasks[i] = &c
	}
	plat := ts.Platform
	plat.DMem = dmem
	return taskmodel.NewTaskSet(plat, tasks)
}

// MaxDMem returns the largest memory access time (in [1, limit]) at
// which the task set remains schedulable under cfg, or 0 if it is
// unschedulable even at d_mem = 1. A limit of 0 defaults to 1<<20.
// Every probe of the search reports to opts.Observer.
func MaxDMem(ts *taskmodel.TaskSet, cfg Config, limit taskmodel.Time, opts Options) (taskmodel.Time, error) {
	if limit <= 0 {
		limit = 1 << 20
	}
	// None of the precomputed interference terms depend on d_mem, so one
	// set of tables serves every probe of the search, filled from and
	// shared through opts.Memo when one is given.
	tbl := precomputeTables(ts, cfg.CRPD)
	tbl.setMemo(opts.Memo)
	sched := func(d taskmodel.Time) (bool, error) {
		a, err := newAnalyzerWithTables(cloneWithDMem(ts, d), cfg, tbl)
		if err != nil {
			return false, err
		}
		a.obs = opts.Observer
		return a.Run().Schedulable, nil
	}
	ok, err := sched(1)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	// Exponential probe for an unschedulable upper end.
	lo, hi := taskmodel.Time(1), taskmodel.Time(2)
	for hi <= limit {
		ok, err := sched(hi)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		lo = hi
		hi *= 2
	}
	if hi > limit {
		// Schedulable across the whole probed range.
		if ok, err := sched(limit); err != nil {
			return 0, err
		} else if ok {
			return limit, nil
		}
		hi = limit
	}
	// Bisection on integers: lo schedulable, hi not.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := sched(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// CriticalScaling returns the smallest period/deadline scaling factor
// k (within tolerance tol) at which the task set is schedulable under
// cfg: k < 1 quantifies the headroom of a schedulable set, k > 1 the
// slack a failing set is missing. The search covers k in
// [2^-10, 2^10]; an error is returned if even the largest scaling does
// not help, and k = 0 is never returned. Every probe of the search
// runs Analyze with opts.
func CriticalScaling(ts *taskmodel.TaskSet, cfg Config, tol float64, opts Options) (float64, error) {
	if tol <= 0 {
		tol = 1e-3
	}
	sched := func(k float64) (bool, error) {
		res, err := Analyze(cloneScaled(ts, k), cfg, opts)
		if err != nil {
			return false, err
		}
		return res.Schedulable, nil
	}
	lo, hi := 1.0/1024, 1024.0
	okHi, err := sched(hi)
	if err != nil {
		return 0, err
	}
	if !okHi {
		return 0, fmt.Errorf("core: task set unschedulable even with periods scaled by %g", hi)
	}
	okLo, err := sched(lo)
	if err != nil {
		return 0, err
	}
	if okLo {
		return lo, nil
	}
	// Invariant: lo unschedulable, hi schedulable.
	for hi-lo > tol*hi {
		mid := (lo + hi) / 2
		ok, err := sched(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
