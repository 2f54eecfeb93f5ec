package taskmodel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cacheset"
)

// TaskJSON is the wire representation of a Task; cache sets travel as
// index lists.
type TaskJSON struct {
	Name     string    `json:"name"`
	Core     int       `json:"core"`
	Priority int       `json:"priority"`
	PD       Time      `json:"pd"`
	MD       int64     `json:"md"`
	MDr      int64     `json:"mdr"`
	Period   Time      `json:"period"`
	Deadline Time      `json:"deadline"`
	UCB      IndexList `json:"ucb"`
	ECB      IndexList `json:"ecb"`
	PCB      IndexList `json:"pcb"`
}

// TaskSetJSON is the wire representation of a TaskSet: the file format
// the CLIs exchange and the "taskset" field of the analysis server's
// requests, so either can decode it inside a larger document in one
// pass. TaskSet turns it into a validated model.
type TaskSetJSON struct {
	Platform Platform   `json:"platform"`
	Tasks    []TaskJSON `json:"tasks"`
}

// IndexList is a cache-set index list. Scanner reads its plain form,
// an array of unsigned integers; encoding/json decodes it as a plain
// []int.
type IndexList []int

// NewTaskSetJSON returns the wire representation of ts.
func NewTaskSetJSON(ts *TaskSet) *TaskSetJSON {
	out := &TaskSetJSON{Platform: ts.Platform}
	for _, t := range ts.Tasks {
		out.Tasks = append(out.Tasks, TaskJSON{
			Name: t.Name, Core: t.Core, Priority: t.Priority,
			PD: t.PD, MD: t.MD, MDr: t.MDr,
			Period: t.Period, Deadline: t.Deadline,
			UCB: t.UCB.Indices(), ECB: t.ECB.Indices(), PCB: t.PCB.Indices(),
		})
	}
	return out
}

// WriteJSON encodes the task set for storage or exchange between the
// generator and analyzer CLIs.
func (ts *TaskSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewTaskSetJSON(ts))
}

// ReadJSON decodes a task set written by WriteJSON and validates it.
// The Scanner reads the plain form; anything else, a file with bytes
// after the set among it, goes to a json.Decoder, which decodes the
// first value.
func ReadJSON(r io.Reader) (*TaskSet, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("taskmodel: decoding task set: %w", err)
	}
	var in TaskSetJSON
	s := NewScanner(data)
	if s.TaskSet(&in); !s.End() {
		in = TaskSetJSON{}
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
			return nil, fmt.Errorf("taskmodel: decoding task set: %w", err)
		}
	}
	return in.TaskSet()
}

// TaskSet builds the validated task set the wire form describes: the
// platform is checked, every cache-set index must lie in
// [0, Cache.NumSets), and the result passes TaskSet.Validate.
func (in *TaskSetJSON) TaskSet() (*TaskSet, error) {
	n := in.Platform.Cache.NumSets
	if err := in.Platform.Validate(); err != nil {
		return nil, fmt.Errorf("taskmodel: invalid task set: %w", err)
	}
	checkIdx := func(name, field string, idx []int) error {
		for _, i := range idx {
			if i < 0 || i >= n {
				return fmt.Errorf("taskmodel: task %q: %s index %d out of range [0,%d)", name, field, i, n)
			}
		}
		return nil
	}
	tasks := make([]*Task, 0, len(in.Tasks))
	for _, tj := range in.Tasks {
		for _, f := range []struct {
			field string
			idx   []int
		}{{"ucb", tj.UCB}, {"ecb", tj.ECB}, {"pcb", tj.PCB}} {
			if err := checkIdx(tj.Name, f.field, f.idx); err != nil {
				return nil, err
			}
		}
		tasks = append(tasks, &Task{
			Name: tj.Name, Core: tj.Core, Priority: tj.Priority,
			PD: tj.PD, MD: tj.MD, MDr: tj.MDr,
			Period: tj.Period, Deadline: tj.Deadline,
			UCB: cacheset.FromSorted(n, tj.UCB),
			ECB: cacheset.FromSorted(n, tj.ECB),
			PCB: cacheset.FromSorted(n, tj.PCB),
		})
	}
	ts := NewTaskSet(in.Platform, tasks)
	if err := ts.Validate(); err != nil {
		return nil, fmt.Errorf("taskmodel: invalid task set: %w", err)
	}
	return ts, nil
}
