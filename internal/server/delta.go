package server

import (
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/cacheset"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// POST /v1/analyze/delta — incremental analysis for near-duplicate
// requests. Design-space exploration loops mostly re-ask the same
// question with one parameter nudged; shipping the whole task set per
// step wastes wire bytes and, worse, gives the server no hint that the
// work is related. A delta request instead names a previously analyzed
// request by its canonical key and lists the edits to apply:
//
//	{
//	  "base_key": "…",                 // key from any prior response
//	  "edits": [
//	    {"task": "t3", "field": "pd", "value": 1200},
//	    {"field": "d_mem", "value": 12}   // no task => platform field
//	  ],
//	  "configs": [...]                 // optional; default: base's
//	}
//
// The server rebuilds the edited task set and routes it through the
// ordinary analyze path, so the response is byte-identical to posting
// the full edited request to /v1/analyze — same canonical key, same
// cache, same coalescing. The speedup comes from the engine's
// content-addressed memo store (core.MemoStore): table columns whose
// inputs the edit did not touch are reused, not recomputed. Each delta
// response's key is itself registered as a base, so sweeps can chain
// edits step over step.

// baseRegistry remembers the decoded inputs of recently analyzed
// requests by canonical key, so deltas can be resolved without the
// client re-sending the task set. Bounded LRU; losing an entry only
// costs a 404 telling the client to re-POST the full request.
type baseRegistry struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
}

type baseEntry struct {
	key  string
	ts   *taskmodel.TaskSet
	cfgs []core.Config
}

func newBaseRegistry(max int) *baseRegistry {
	return &baseRegistry{max: max, ll: list.New(), byKey: make(map[string]*list.Element)}
}

func (r *baseRegistry) put(key string, ts *taskmodel.TaskSet, cfgs []core.Config) {
	if r.max == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ele, ok := r.byKey[key]; ok {
		r.ll.MoveToFront(ele)
		return
	}
	r.byKey[key] = r.ll.PushFront(&baseEntry{key: key, ts: ts, cfgs: cfgs})
	for r.ll.Len() > r.max {
		tail := r.ll.Back()
		r.ll.Remove(tail)
		delete(r.byKey, tail.Value.(*baseEntry).key)
	}
}

func (r *baseRegistry) get(key string) (*taskmodel.TaskSet, []core.Config, bool) {
	if r.max == 0 {
		return nil, nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ele, ok := r.byKey[key]
	if !ok {
		return nil, nil, false
	}
	r.ll.MoveToFront(ele)
	ent := ele.Value.(*baseEntry)
	return ent.ts, ent.cfgs, true
}

func (r *baseRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ll.Len()
}

// wireEdit is one field assignment. The target task is selected by
// Priority (the unique priority value, always unambiguous) or by Task
// (the taskmodel JSON "name" — benchmark-derived names repeat in
// generated sets, so an ambiguous name is rejected rather than
// guessed); selectors refer to the base task set, before any edit in
// the list applies. Neither selector targets the platform. Field uses
// the taskmodel JSON vocabulary: pd, md, mdr, period, deadline,
// priority, core, ucb, ecb, pcb for tasks; d_mem, slot_size,
// reg_budget, reg_period for the platform. Value is the new value — a
// number for scalars, a cache-set index array for ucb/ecb/pcb.
type wireEdit struct {
	Task     string          `json:"task,omitempty"`
	Priority *int            `json:"priority,omitempty"`
	Field    string          `json:"field"`
	Value    json.RawMessage `json:"value"`
}

type wireDeltaRequest struct {
	BaseKey string            `json:"base_key"`
	Edits   []wireEdit        `json:"edits"`
	Configs []core.WireConfig `json:"configs,omitempty"`
}

// wireDeltaResponse mirrors wireAnalyzeResponse with the resolved base
// attached. Key is the canonical key of the *edited* request — usable
// as the base of the next delta.
type wireDeltaResponse struct {
	Key       string          `json:"key"`
	BaseKey   string          `json:"base_key"`
	Cached    bool            `json:"cached"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Results   json.RawMessage `json:"results"`
}

// applyEdits rebuilds the task set with the edits applied. Tasks are
// shallow-copied (cache sets are immutable once built, so unedited sets
// are shared with the base), and the result runs the full taskmodel
// validation so a delta can never smuggle in a task set /v1/analyze
// would have rejected.
func applyEdits(base *taskmodel.TaskSet, edits []wireEdit) (*taskmodel.TaskSet, error) {
	tasks := make([]*taskmodel.Task, len(base.Tasks))
	byName := make(map[string][]*taskmodel.Task, len(base.Tasks))
	byPrio := make(map[int]*taskmodel.Task, len(base.Tasks))
	for i, t := range base.Tasks {
		c := *t
		tasks[i] = &c
		byName[t.Name] = append(byName[t.Name], tasks[i])
		byPrio[t.Priority] = tasks[i]
	}
	plat := base.Platform
	n := plat.Cache.NumSets

	scalar := func(e wireEdit) (int64, error) {
		var v int64
		if err := json.Unmarshal(e.Value, &v); err != nil {
			return 0, fmt.Errorf("field %q wants a number: %w", e.Field, err)
		}
		return v, nil
	}
	set := func(e wireEdit) (cacheset.Set, error) {
		var idx []int
		if err := json.Unmarshal(e.Value, &idx); err != nil {
			return cacheset.Set{}, fmt.Errorf("field %q wants a cache-set index array: %w", e.Field, err)
		}
		for _, i := range idx {
			if i < 0 || i >= n {
				return cacheset.Set{}, fmt.Errorf("field %q: index %d out of range [0,%d)", e.Field, i, n)
			}
		}
		return cacheset.FromSorted(n, idx), nil
	}

	for ei, e := range edits {
		field := strings.ToLower(e.Field)
		if e.Task == "" && e.Priority == nil {
			v, err := scalar(e)
			if err != nil {
				return nil, fmt.Errorf("edit %d: %w", ei, err)
			}
			switch field {
			case "d_mem":
				plat.DMem = v
			case "slot_size":
				plat.SlotSize = int(v)
			case "reg_budget":
				plat.RegBudget = v
			case "reg_period":
				plat.RegPeriod = v
			default:
				return nil, fmt.Errorf("edit %d: unknown platform field %q (want d_mem, slot_size, reg_budget or reg_period)", ei, e.Field)
			}
			continue
		}
		var tk *taskmodel.Task
		switch {
		case e.Priority != nil:
			var ok bool
			if tk, ok = byPrio[*e.Priority]; !ok {
				return nil, fmt.Errorf("edit %d: no task with priority %d in the base task set", ei, *e.Priority)
			}
			if e.Task != "" && tk.Name != e.Task {
				return nil, fmt.Errorf("edit %d: task with priority %d is named %q, not %q", ei, *e.Priority, tk.Name, e.Task)
			}
		default:
			switch cands := byName[e.Task]; len(cands) {
			case 0:
				return nil, fmt.Errorf("edit %d: no task named %q in the base task set", ei, e.Task)
			case 1:
				tk = cands[0]
			default:
				return nil, fmt.Errorf("edit %d: %d tasks named %q; select by unique priority instead", ei, len(cands), e.Task)
			}
		}
		switch field {
		case "ucb", "ecb", "pcb":
			s, err := set(e)
			if err != nil {
				return nil, fmt.Errorf("edit %d: %w", ei, err)
			}
			switch field {
			case "ucb":
				tk.UCB = s
			case "ecb":
				tk.ECB = s
			case "pcb":
				tk.PCB = s
			}
		default:
			v, err := scalar(e)
			if err != nil {
				return nil, fmt.Errorf("edit %d: %w", ei, err)
			}
			switch field {
			case "pd":
				tk.PD = v
			case "md":
				tk.MD = v
			case "mdr":
				tk.MDr = v
			case "period":
				tk.Period = v
			case "deadline":
				tk.Deadline = v
			case "priority":
				tk.Priority = int(v)
			case "core":
				tk.Core = int(v)
			default:
				return nil, fmt.Errorf("edit %d: unknown task field %q (want pd, md, mdr, period, deadline, priority, core, ucb, ecb or pcb)", ei, e.Field)
			}
		}
	}

	ts := taskmodel.NewTaskSet(plat, tasks)
	if err := ts.Validate(); err != nil {
		return nil, fmt.Errorf("edited task set invalid: %w", err)
	}
	return ts, nil
}

// deltaInputs applies a delta request to its base: the edited task set
// and the configurations to analyze it under (the request's, else the
// base's), validated like a full /v1/analyze request.
func deltaInputs(baseTS *taskmodel.TaskSet, baseCfgs []core.Config, req *wireDeltaRequest) (*taskmodel.TaskSet, []core.Config, error) {
	ts, err := applyEdits(baseTS, req.Edits)
	if err != nil {
		return nil, nil, err
	}
	cfgs := baseCfgs
	if len(req.Configs) > 0 {
		if cfgs, err = parseConfigs(req.Configs); err != nil {
			return nil, nil, err
		}
	}
	// The edits may have invalidated a cross-field constraint the base
	// satisfied (e.g. zeroing reg_budget under a regulated config); that
	// is still malformed input, not an engine failure.
	for i, cfg := range cfgs {
		if err := cfg.ValidateFor(ts.Platform); err != nil {
			return nil, nil, fmt.Errorf("config %d: %w", i, err)
		}
	}
	return ts, cfgs, nil
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	ri := reqInfoFrom(r.Context())
	st := ri.stageTimer()
	td := st.Now()
	body, ok := s.readBody(w, r)
	if !ok {
		st.AddSince(telemetry.StageDecode, td)
		return
	}
	var req wireDeltaRequest
	err := json.Unmarshal(body, &req)
	st.AddSince(telemetry.StageDecode, td)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.BaseKey == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("missing base_key (analyze the full request once and reuse its key)"))
		return
	}
	// Fleet routing keys on the *base*: the owner of the base key holds
	// its registry entry and the warm memo backbones the delta reuses.
	// A base this node already knows resolves locally regardless of
	// ownership (it was analyzed or relayed here before); a successful
	// relay counts delta_requests on the owner, not here.
	degraded := false
	if s.ring != nil && !cluster.Forwarded(r) && !s.ring.OwnsLocally(req.BaseKey) {
		if _, _, known := s.bases.get(req.BaseKey); !known {
			if done := s.proxyDelta(w, r, ri, req.BaseKey, body); done {
				return
			}
			degraded = true
		}
	}
	s.obs.Add(telemetry.CtrServerDeltaRequests, 1)
	baseTS, baseCfgs, ok := s.bases.get(req.BaseKey)
	if !ok {
		s.obs.Add(telemetry.CtrServerDeltaBaseMisses, 1)
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown base key %s: not analyzed recently by this server (re-POST the full request to /v1/analyze)", req.BaseKey))
		return
	}
	s.obs.Add(telemetry.CtrServerDeltaEdits, int64(len(req.Edits)))
	td = st.Now()
	ts, cfgs, err := deltaInputs(baseTS, baseCfgs, &req)
	st.AddSince(telemetry.StageDecode, td)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	tk := st.Now()
	key := core.CanonicalKey(ts, cfgs)
	st.AddSince(telemetry.StageKey, tk)
	oc, err := s.analyze(r.Context(), ri, key, ts, cfgs)
	if err != nil {
		s.writeError(w, statusOf(err), err)
		return
	}
	// A successful delta logs as "delta" regardless of how the edited
	// request resolved underneath (fresh, cached or coalesced) — unless
	// it only resolved here because its owner was unreachable.
	if degraded {
		ri.forceVerdict("degraded")
	} else {
		ri.forceVerdict("delta")
	}
	tm := ri.stageTimer().Now()
	s.writeJSON(w, http.StatusOK, wireDeltaResponse{
		Key: oc.key, BaseKey: req.BaseKey,
		Cached: oc.cached, Coalesced: oc.coalesced, Results: oc.raw,
	})
	ri.stageTimer().AddSince(telemetry.StageMarshal, tm)
}
