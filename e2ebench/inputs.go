package main

import (
	"bytes"
	"encoding/json"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/taskmodel"
)

// wireConfig is one analysis configuration in the server's request
// vocabulary.
type wireConfig struct {
	Arbiter     string `json:"arbiter"`
	Persistence bool   `json:"persistence,omitempty"`
}

// paperConfigs returns the six paper variants as engine and wire
// configurations.
func paperConfigs() ([]core.Config, []wireConfig) {
	var cfgs []core.Config
	var wire []wireConfig
	for _, v := range experiments.PaperVariants() {
		cfgs = append(cfgs, core.Config{Arbiter: v.Arbiter, Persistence: v.Persistence})
		wire = append(wire, wireConfig{Arbiter: strings.ToLower(v.Arbiter.String()), Persistence: v.Persistence})
	}
	return cfgs, wire
}

// analyzeBody is a /v1/analyze request for ts under the configurations.
func analyzeBody(ts *taskmodel.TaskSet, wire []wireConfig) ([]byte, error) {
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		TaskSet json.RawMessage `json:"taskset"`
		Configs []wireConfig    `json:"configs"`
	}{buf.Bytes(), wire})
}

// withPD returns a copy of ts whose task at priority prio has the given
// processing demand. Unedited tasks are shared.
func withPD(ts *taskmodel.TaskSet, prio int, pd taskmodel.Time) *taskmodel.TaskSet {
	return editTask(ts, prio, func(t *taskmodel.Task) { t.PD = pd })
}

// editTask returns a copy of ts with fn applied to a copy of the task at
// priority prio; the other tasks are shared.
func editTask(ts *taskmodel.TaskSet, prio int, fn func(*taskmodel.Task)) *taskmodel.TaskSet {
	tasks := make([]*taskmodel.Task, len(ts.Tasks))
	copy(tasks, ts.Tasks)
	for i, t := range tasks {
		if t.Priority == prio {
			c := *t
			fn(&c)
			tasks[i] = &c
		}
	}
	return taskmodel.NewTaskSet(ts.Platform, tasks)
}

// envelope is the part of an analyze or delta response the benchmark
// checks.
type envelope struct {
	Key     string          `json:"key"`
	Results json.RawMessage `json:"results"`
}

// expectedResults is what a correct server must answer for ts: the
// marshaled core.AnalyzeAll results, and the canonical key.
func expectedResults(ts *taskmodel.TaskSet, cfgs []core.Config) ([]byte, string, error) {
	res, err := core.AnalyzeAll(ts, cfgs)
	if err != nil {
		return nil, "", err
	}
	raw, err := json.Marshal(res)
	return raw, core.CanonicalKey(ts, cfgs), err
}
