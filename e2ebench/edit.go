package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// The edit workload is closed-loop design iteration: each of nproc
// clients walks its own chain of never-seen POST /v1/analyze/delta
// edits against one in-process node, each edit based on the key the
// previous one returned. Each client has its own large base at the
// BenchmarkDeltaSweep scale (~160 tasks, an 8192-set cache, the six
// paper variants), analyzed and memo-warmed during set-up. Three
// quarters of the edits nudge one task's pd (memo reads); the rest add
// a cache set to one task's ECB or UCB (column invalidations, memo
// writes). The core.MemoStore tiers and the delta path do most of the
// work; request bodies are small, so wire decode barely figures.

// editWarmSteps edits each chain takes during set-up, so the measured
// phase starts from a memo that has seen every edit kind.
const editWarmSteps = 8

// editChecks is how many sampled states per chain are re-analyzed
// with core.AnalyzeAll after the measured phase, chosen evenly among
// the states kept every editSampleEvery steps.
const (
	editChecks      = 3
	editSampleEvery = 64
)

func editGenConfig() taskgen.Config {
	cfg := taskgen.DefaultConfig()
	cfg.TasksPerCore = 40
	cfg.CoreUtilization = 0.3
	cfg.Platform.Cache.NumSets = 8192
	return cfg
}

// edit is one wire edit, selecting its task by unique priority.
type edit struct {
	Priority int    `json:"priority"`
	Field    string `json:"field"`
	Value    any    `json:"value"`
}

// editChain is one client's walk. Edits never revisit a state: every
// pd edit writes a value its task has not had before (pd only
// decreases, which also keeps the set valid), and ECB/UCB edits only
// ever add cache sets.
type editChain struct {
	rng     *rand.Rand
	cur     *taskmodel.TaskSet // local copy of the chain's current state
	key     string             // server key of cur
	body    []byte             // /v1/analyze body of the base
	last    []byte             // results of the last answered edit
	origPD  map[int]taskmodel.Time
	pdEdits map[int]taskmodel.Time
	step    int
}

// newEditChains generates one chain per client from the run seed.
func newEditChains(seed int64, clients int, pool []taskgen.TaskParams) ([]*editChain, error) {
	_, wire := paperConfigs()
	var chains []*editChain
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		ts, err := taskgen.Generate(editGenConfig(), pool, rng)
		if err != nil {
			return nil, err
		}
		body, err := analyzeBody(ts, wire)
		if err != nil {
			return nil, err
		}
		ch := &editChain{rng: rng, cur: ts, body: body, origPD: map[int]taskmodel.Time{}, pdEdits: map[int]taskmodel.Time{}}
		for _, t := range ts.Tasks {
			ch.origPD[t.Priority] = t.PD
		}
		chains = append(chains, ch)
	}
	return chains, nil
}

// next draws the chain's next edit and the state it leads to. The
// chain advances only when the caller commits the state.
func (ch *editChain) next() (edit, *taskmodel.TaskSet) {
	step := ch.step
	ch.step++
	n := len(ch.cur.Tasks)
	switch step % 8 {
	case 3, 7:
		field := "ecb"
		if step%8 == 7 {
			field = "ucb"
		}
		for try := 0; try < n; try++ {
			t := ch.cur.Tasks[ch.rng.Intn(n)]
			var cand []int
			if field == "ecb" {
				idx := ch.rng.Intn(ch.cur.Platform.Cache.NumSets)
				if !t.ECB.Contains(idx) {
					cand = []int{idx}
				}
			} else {
				cand = t.ECB.Difference(t.UCB).Indices()
			}
			if len(cand) == 0 {
				continue
			}
			idx := cand[ch.rng.Intn(len(cand))]
			next := editTask(ch.cur, t.Priority, func(t *taskmodel.Task) {
				if field == "ecb" {
					t.ECB = t.ECB.Clone()
					t.ECB.Add(idx)
				} else {
					t.UCB = t.UCB.Clone()
					t.UCB.Add(idx)
				}
			})
			set := next.Tasks[indexOfPrio(next, t.Priority)].ECB
			if field == "ucb" {
				set = next.Tasks[indexOfPrio(next, t.Priority)].UCB
			}
			return edit{Priority: t.Priority, Field: field, Value: set.Indices()}, next
		}
	}
	for {
		t := ch.cur.Tasks[ch.rng.Intn(n)]
		k := ch.pdEdits[t.Priority] + 1
		pd := ch.origPD[t.Priority] - k
		if pd < 1 {
			continue
		}
		ch.pdEdits[t.Priority] = k
		return edit{Priority: t.Priority, Field: "pd", Value: pd}, withPD(ch.cur, t.Priority, pd)
	}
}

func indexOfPrio(ts *taskmodel.TaskSet, prio int) int {
	for i, t := range ts.Tasks {
		if t.Priority == prio {
			return i
		}
	}
	return -1
}

// editState is the live state of an edit run.
type editState struct {
	fl     *fleet
	chains []*editChain
	cls    []*client
}

func (s *editState) close() {
	for _, c := range s.cls {
		c.close()
	}
	s.fl.close()
}

// editSample is one chain state kept for the output check.
type editSample struct {
	ts      *taskmodel.TaskSet
	key     string
	results []byte
}

// editSegment is what one measured phase of the edit run recorded.
type editSegment struct {
	recs    []reqRecord
	lat     []float64 // ms per successful edit, steal-adjusted
	ok      int
	wall    time.Duration  // steal-adjusted
	samples [][]editSample // per chain
}

func runEdit(cfg runConfig) (*report, error) {
	gen := editGenConfig()
	clients := nproc()
	var extractMS []float64
	st, setupS, err := repeatSetup(cfg, func(rep int) (*editState, error) {
		t0 := time.Now()
		var err error
		if rep == 0 {
			_, err = taskgen.PoolFromSuite(gen.Platform.Cache)
		} else {
			_, err = benchsuite.ExtractAll(gen.Platform.Cache)
		}
		if err != nil {
			return nil, err
		}
		extractMS = append(extractMS, ms(time.Since(t0)))
		pool, err := taskgen.PoolFromSuite(gen.Platform.Cache)
		if err != nil {
			return nil, err
		}
		chains, err := newEditChains(cfg.seed, clients, pool)
		if err != nil {
			return nil, err
		}
		fl, err := startFleet(1, cfg.trace)
		if err != nil {
			return nil, err
		}
		s := &editState{fl: fl, chains: chains}
		for range chains {
			s.cls = append(s.cls, newClient())
		}
		// Warm-up: analyze every base (filling the memo), then take a few
		// edits of every kind. Chains warm one after the other: two cold
		// 160-task analyses racing for the memo's capacity finish in an
		// order-dependent time, which would make setup_s bimodal.
		for i, ch := range chains {
			if err := s.warm(i, ch); err != nil {
				s.close()
				return nil, err
			}
		}
		return s, nil
	}, (*editState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	rep := newReport()
	// measure runs one segment and reconciles its client counts with the
	// server's; it returns the segment and the server's counter deltas.
	measure := func(d time.Duration, rl *reqLog) (*editSegment, metricsDoc, error) {
		before, err := st.fl.scrape()
		if err != nil {
			return nil, before, err
		}
		st.fl.log.Store(rl)
		seg := st.measure(cfg, d, rl)
		st.fl.log.Store(nil)
		after, err := st.fl.scrape()
		if err != nil {
			return nil, after, err
		}
		delta := after.sub(before)
		crossCheck(rep, delta, seg.recs)
		return seg, delta, nil
	}
	var seg, untraced *editSegment
	var tr *tracer
	if !cfg.trace {
		if seg, _, err = measure(cfg.seconds, nil); err != nil {
			return nil, err
		}
	} else {
		// Untraced and traced quarters alternate, so drift through the run
		// does not bias the tracing overhead.
		tr = newTracer()
		rl := newReqLog(tr, 1)
		var traced metricsDoc
		for q := 0; q < 4; q++ {
			var log *reqLog
			if q%2 == 1 {
				log = rl
			}
			s, delta, err := measure(cfg.seconds/4, log)
			if err != nil {
				return nil, err
			}
			if q%2 == 1 {
				seg, traced = seg.merge(s), traced.add(delta)
			} else {
				untraced = untraced.merge(s)
			}
		}
		serverLayers(rep, traced, seg.recs, rl, func(reqRecord) int { return 0 })
	}
	for _, s := range []*editSegment{untraced, seg} {
		if s == nil {
			continue
		}
		rep.attempted += len(s.recs)
		for _, r := range s.recs {
			if r.failed {
				rep.failed++
			}
		}
	}
	st.check(rep, seg, untraced)

	d := summarizeRun(seg.lat)
	rep.set("setup_s", setupS, "s", setupReps)
	rep.set("throughput", float64(seg.ok)/seg.wall.Seconds(), "1/s", seg.ok)
	rep.setDist("latency_p50_ms", "latency_p99_ms", d, "ms")
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	if !cfg.trace {
		return rep, nil
	}
	rep.set("benchsuite.extract_ms", median(extractMS), "ms", len(extractMS))
	rep.set("trace.overhead_share", median(seg.lat)/median(untraced.lat)-1, "share", len(seg.lat))
	rep.set("failed_share", share(float64(rep.failed), float64(rep.attempted)), "share", rep.attempted)
	finishTrace(cfg, rep, tr)
	fillAbsent(rep)
	return rep, nil
}

// warm analyzes chain i's base and takes its first editWarmSteps edits.
func (s *editState) warm(i int, ch *editChain) error {
	status, data, err := s.cls[i].post(s.fl.nodes[0].url+"/v1/analyze", ch.body, "")
	var env envelope
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(data, &env)
	} else if err == nil {
		err = fmt.Errorf("base analyze: status %d: %s", status, data)
	}
	if err != nil {
		return err
	}
	ch.key = env.Key
	for w := 0; w < editWarmSteps; w++ {
		if _, err := s.step(i, ch, ""); err != nil {
			return err
		}
	}
	return nil
}

// merge appends segment o to s (nil s: o).
func (s *editSegment) merge(o *editSegment) *editSegment {
	if s == nil {
		return o
	}
	s.recs = append(s.recs, o.recs...)
	s.lat = append(s.lat, o.lat...)
	s.ok += o.ok
	s.wall += o.wall
	for i := range s.samples {
		s.samples[i] = append(s.samples[i], o.samples[i]...)
	}
	return s
}

// step sends chain i's next edit and, on success, commits the state.
func (s *editState) step(i int, ch *editChain, id string) (reqRecord, error) {
	e, next := ch.next()
	body, err := json.Marshal(struct {
		BaseKey string `json:"base_key"`
		Edits   []edit `json:"edits"`
	}{ch.key, []edit{e}})
	if err != nil {
		return reqRecord{}, err
	}
	r := reqRecord{id: id, sent: time.Now()}
	r.due = r.sent
	status, data, err := s.cls[i].post(s.fl.nodes[0].url+"/v1/analyze/delta", body, id)
	r.done, r.status = time.Now(), status
	var env envelope
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(data, &env)
	} else if err == nil {
		err = fmt.Errorf("delta step %d: status %d: %s", ch.step, status, bytes.TrimSpace(data))
	}
	if err != nil || env.Key == "" {
		r.failed = true
		return r, err
	}
	ch.cur, ch.key, ch.last = next, env.Key, env.Results
	return r, nil
}

// measure runs every chain closed-loop for d. With rl set, request
// IDs and client spans feed the traced segment's reqLog.
func (s *editState) measure(cfg runConfig, d time.Duration, rl *reqLog) *editSegment {
	seg := &editSegment{samples: make([][]editSample, len(s.chains))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i, ch := range s.chains {
		wg.Add(1)
		go func(i int, ch *editChain) {
			defer wg.Done()
			var tk *telemetry.Track
			if rl != nil {
				tk = rl.tr.track(fmt.Sprintf("client %d", i))
			}
			for k := 0; time.Since(start) < d; k++ {
				id := ""
				if rl != nil {
					id = fmt.Sprintf("e%d-%d", i, ch.step)
				}
				sp := rl.tracer().begin(tk, "client", "delta", -1)
				if rl != nil {
					rl.setSpan(roleClient, id, sp.id)
				}
				r, err := s.step(i, ch, id)
				sp.end()
				mu.Lock()
				seg.recs = append(seg.recs, r)
				if err == nil {
					seg.ok++
					if k%editSampleEvery == 0 {
						seg.samples[i] = append(seg.samples[i], editSample{ts: ch.cur, key: ch.key, results: ch.last})
					}
				}
				mu.Unlock()
			}
		}(i, ch)
	}
	wg.Wait()
	end := time.Now()
	cfg.steal.sample()
	for _, r := range seg.recs {
		if !r.failed {
			seg.lat = append(seg.lat, cfg.steal.adjustMS(r.sent, r.done))
		}
	}
	seg.wall = cfg.steal.adjust(start, end)
	return seg
}

// check re-analyzes sampled chain states with core.AnalyzeAll and
// requires the server's delta results for them to be byte-identical,
// and requires every chain's final key to be the canonical key of the
// state the benchmark's local copy reached by applying the same edits.
func (s *editState) check(rep *report, segs ...*editSegment) {
	cfgs, _ := paperConfigs()
	for i, ch := range s.chains {
		if got := core.CanonicalKey(ch.cur, cfgs); got != ch.key {
			rep.failed++
			rep.problem("edit chain %d: server key %s, local copy's key %s", i, ch.key, got)
		}
		var samples []editSample
		for _, seg := range segs {
			if seg != nil {
				samples = append(samples, seg.samples[i]...)
			}
		}
		n := min(editChecks, len(samples))
		for j := 0; j < n; j++ {
			smp := samples[j*len(samples)/n]
			want, key, err := expectedResults(smp.ts, cfgs)
			if err != nil {
				rep.problem("edit chain %d: core.AnalyzeAll: %v", i, err)
				continue
			}
			if smp.key != key || !bytes.Equal(smp.results, want) {
				rep.failed++
				rep.problem("edit chain %d: state %s: delta results or key differ from core.AnalyzeAll", i, smp.key)
			}
		}
	}
}

// editDigest fingerprints a run's inputs: every chain's base body and
// its first steps' edits.
func editDigest(seed int64, steps int) (string, error) {
	pool, err := taskgen.PoolFromSuite(editGenConfig().Platform.Cache)
	if err != nil {
		return "", err
	}
	chains, err := newEditChains(seed, 2, pool)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, ch := range chains {
		h.Write(ch.body)
		for k := 0; k < steps; k++ {
			e, next := ch.next()
			fmt.Fprintf(h, "%+v\n", e)
			ch.cur = next
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
