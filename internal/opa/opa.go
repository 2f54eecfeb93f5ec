// Package opa implements Audsley's Optimal Priority Assignment
// algorithm on top of the bus contention analysis: priorities are
// assigned bottom-up, each level going to any task whose WCRT bound at
// that level meets its deadline assuming all still-unassigned tasks
// run at higher priorities.
//
// The paper assigns deadline-monotonic priorities; OPA is the natural
// extension whenever DM fails. Strictly, Audsley's optimality argument
// requires the schedulability test to be independent of the relative
// priority order *above* the level under test. The bus analysis is not
// exactly OPA-compatible — the ECB-union CRPD term and the remote
// response-time estimates both peek at the higher-priority order — so
// the result is a principled heuristic rather than an optimal search:
// every assignment it returns is verified schedulable with the full
// analysis before being reported, and failures fall back to reporting
// unschedulability at the first unplaceable level.
package opa

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/taskmodel"
)

// Result describes an assignment attempt.
type Result struct {
	// Schedulable reports whether a verified schedulable assignment was
	// found.
	Schedulable bool
	// Priorities maps task index (position in the input slice) to the
	// assigned unique priority (0 = highest); valid only when
	// Schedulable.
	Priorities []int
	// FailedLevel is the priority level no task could hold, when not
	// Schedulable (-1 otherwise).
	FailedLevel int
}

// Assign searches for a priority assignment that makes the task set
// schedulable under the given analysis configuration. The input tasks'
// Priority fields are ignored (but restored on return); Core
// assignments are respected.
func Assign(ts *taskmodel.TaskSet, cfg core.Config) (*Result, error) {
	n := len(ts.Tasks)
	if n == 0 {
		return nil, fmt.Errorf("opa: empty task set")
	}
	// Remember the incoming priorities so the probe mutations below
	// never leak.
	original := make([]int, n)
	for i, t := range ts.Tasks {
		original[i] = t.Priority
	}
	restore := func() {
		for i, t := range ts.Tasks {
			t.Priority = original[i]
		}
	}
	defer restore()

	assigned := make([]int, n) // task index -> level, -1 while unassigned
	for i := range assigned {
		assigned[i] = -1
	}

	// Candidate order: largest deadline first. Audsley's algorithm is
	// order-insensitive for OPA-compatible tests; for this heuristic
	// setting, trying the most deadline-tolerant task first at each
	// (low) level succeeds more often and matches the DM intuition.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ts.Tasks[order[a]].Deadline > ts.Tasks[order[b]].Deadline
	})

	for level := n - 1; level >= 0; level-- {
		placed := false
		for _, cand := range order {
			if placed {
				break
			}
			if assigned[cand] != -1 {
				continue
			}
			// Probe: candidate at this level, remaining unassigned tasks
			// packed above it in input order, already-assigned tasks at
			// their levels.
			next := 0
			for i := range ts.Tasks {
				switch {
				case i == cand:
					ts.Tasks[i].Priority = level
				case assigned[i] != -1:
					ts.Tasks[i].Priority = assigned[i]
				default:
					ts.Tasks[i].Priority = next
					next++
				}
			}
			probe := taskmodel.NewTaskSet(ts.Platform, append([]*taskmodel.Task(nil), ts.Tasks...))
			a, err := core.NewAnalyzer(probe, cfg)
			if err != nil {
				return nil, err
			}
			// Deadlines are sound stand-ins for the other tasks'
			// unknown response times: in any schedulable completion of
			// the assignment, R_l <= D_l.
			for _, t := range probe.Tasks {
				if t.Priority != level {
					a.R[t.Priority] = t.Deadline
				}
			}
			if _, ok := a.ResponseTime(level); ok {
				assigned[cand] = level
				placed = true
			}
		}
		if !placed {
			return &Result{Schedulable: false, FailedLevel: level}, nil
		}
	}

	// Verify the complete assignment with the full fixed point.
	for i := range ts.Tasks {
		ts.Tasks[i].Priority = assigned[i]
	}
	final := taskmodel.NewTaskSet(ts.Platform, append([]*taskmodel.Task(nil), ts.Tasks...))
	res, err := core.Analyze(final, cfg, core.Options{})
	if err != nil {
		return nil, err
	}
	if !res.Schedulable {
		// The heuristic's per-level probes passed but the converged
		// fixed point does not: report honestly.
		return &Result{Schedulable: false, FailedLevel: -1}, nil
	}
	return &Result{Schedulable: true, Priorities: assigned, FailedLevel: -1}, nil
}

// ApplyTo writes a found assignment into the tasks (by input order) and
// returns a re-sorted task set.
func ApplyTo(ts *taskmodel.TaskSet, r *Result) (*taskmodel.TaskSet, error) {
	if !r.Schedulable {
		return nil, fmt.Errorf("opa: no schedulable assignment to apply")
	}
	if len(r.Priorities) != len(ts.Tasks) {
		return nil, fmt.Errorf("opa: assignment for %d tasks, set has %d", len(r.Priorities), len(ts.Tasks))
	}
	for i, t := range ts.Tasks {
		t.Priority = r.Priorities[i]
	}
	return taskmodel.NewTaskSet(ts.Platform, append([]*taskmodel.Task(nil), ts.Tasks...)), nil
}
