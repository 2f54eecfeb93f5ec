package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// The serve workload is open-loop mixed traffic against a 2-node
// in-process fleet (cluster ring, shard-owner routing) over loopback:
// fresh/dup/delta requests at 20/60/20 over paper-default task sets,
// sent on a fixed schedule at serveRate, spread evenly across the
// nodes. Wire decode, the canonical key, the result cache (dup reads
// beside fresh writes), coalescing, admission, proxying and marshalling
// dominate; the engine sees only the fresh and delta classes.
const (
	serveNodes = 2
	serveBases = 32
	// serveRate is the nominal rate, about half of what the fleet
	// sustains on two cores.
	serveRate = 200.0
	// serveLimit is the tail-latency limit max_rate_rps is judged by.
	serveLimit = 25 * time.Millisecond
	// serveCheckEvery samples every n-th request for the output check.
	serveCheckEvery = 25
)

// serveLadder multiplies serveRate for the max_rate_rps steps a traced
// run climbs after its two nominal-rate segments.
var serveLadder = []float64{1.5, 2, 2.5, 3}

const (
	classFresh = iota
	classDup
	classDelta
	numClasses
)

var classNames = [numClasses]string{"fresh", "dup", "delta"}

// serveMix is the class mix, in class order.
var serveMix = [numClasses]float64{0.2, 0.6, 0.2}

// serveBase is one generated task set the traffic revolves around.
type serveBase struct {
	ts        *taskmodel.TaskSet
	key       string // canonical key, learned at warm-up and checked locally
	prio      int    // priority of the task whose pd fresh and delta nudge
	pd        taskmodel.Time
	pre, post []byte // the base's request body around that task's pd digits
}

// body returns the /v1/analyze body with the nudged task's pd set.
func (b *serveBase) body(pd taskmodel.Time) []byte {
	digits := strconv.FormatInt(int64(pd), 10)
	out := make([]byte, 0, len(b.pre)+len(digits)+len(b.post))
	return append(append(append(out, b.pre...), digits...), b.post...)
}

// nudge is the pd request k gives its base's nudged task: distinct for
// every k below pd-1, and always below the original, so the set stays
// valid and its canonical key is new.
func (b *serveBase) nudge(k int) taskmodel.Time {
	return b.pd - 1 - taskmodel.Time(k)%(b.pd-1)
}

// pdSentinel marks the nudged pd while the body template is built.
const pdSentinel = 987654321012345

// serveInputs are a run's generated inputs.
type serveInputs struct {
	bases []*serveBase
	cfgs  []core.Config
	wire  []wireConfig
}

func newServeInputs(seed int64, pool []taskgen.TaskParams) (*serveInputs, error) {
	in := &serveInputs{
		cfgs: []core.Config{{Arbiter: core.FP, Persistence: true}},
		wire: []wireConfig{{Arbiter: "fp", Persistence: true}},
	}
	rng := rand.New(rand.NewSource(seed*104729 + 1))
	for i := 0; i < serveBases; i++ {
		ts, err := taskgen.Generate(taskgen.DefaultConfig(), pool, rng)
		if err != nil {
			return nil, err
		}
		b := &serveBase{ts: ts}
		for _, t := range ts.Tasks {
			if t.PD > b.pd {
				b.prio, b.pd = t.Priority, t.PD
			}
		}
		if b.pd < 2 {
			return nil, fmt.Errorf("base %d: no task with pd >= 2 to nudge", i)
		}
		tmpl, err := analyzeBody(withPD(ts, b.prio, pdSentinel), in.wire)
		if err != nil {
			return nil, err
		}
		at := bytes.Index(tmpl, []byte(strconv.Itoa(pdSentinel)))
		if at < 0 {
			return nil, fmt.Errorf("base %d: pd not found in the request body", i)
		}
		b.pre, b.post = tmpl[:at], tmpl[at+len(strconv.Itoa(pdSentinel)):]
		b.key = core.CanonicalKey(ts, in.cfgs)
		in.bases = append(in.bases, b)
	}
	return in, nil
}

// planned is one scheduled request: its class and base.
type planned struct{ class, base int }

// plan draws the class and base of requests [k0, k0+n) of a run; the
// draw for request k depends only on the seed and k.
func plan(seed int64, k0, n int) []planned {
	out := make([]planned, n)
	for i := range out {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k0+i)))
		f, class := rng.Float64(), numClasses-1
		cum := 0.0
		for c := 0; c < numClasses-1; c++ {
			cum += serveMix[c]
			if f < cum {
				class = c
				break
			}
		}
		out[i] = planned{class: class, base: rng.Intn(serveBases)}
	}
	return out
}

// request builds request k's path and body.
func (in *serveInputs) request(p planned, k int) (string, []byte, error) {
	b := in.bases[p.base]
	switch p.class {
	case classFresh:
		return "/v1/analyze", b.body(b.nudge(k)), nil
	case classDup:
		return "/v1/analyze", b.body(b.pd), nil
	default:
		body, err := json.Marshal(struct {
			BaseKey string `json:"base_key"`
			Edits   []edit `json:"edits"`
		}{b.key, []edit{{Priority: b.prio, Field: "pd", Value: b.nudge(k)}}})
		return "/v1/analyze/delta", body, err
	}
}

// taskSet is the task set request k asks about, for the output check
// and route tagging.
func (in *serveInputs) taskSet(p planned, k int) *taskmodel.TaskSet {
	b := in.bases[p.base]
	if p.class == classDup {
		return b.ts
	}
	return withPD(b.ts, b.prio, b.nudge(k))
}

// serveState is the live state of a serve run.
type serveState struct {
	seed int64
	in   *serveInputs
	fl   *fleet
	cls  []*client // one per sender; sender j talks only to node j%nodes
	next int       // index of the next request of the run
}

func (s *serveState) close() {
	for _, c := range s.cls {
		c.close()
	}
	s.fl.close()
}

// serveRec is one request with what the output check needs.
type serveRec struct {
	reqRecord
	k    int
	p    planned
	resp []byte // kept for sampled requests only
}

// serveSegment is one open-loop phase at a fixed rate.
type serveSegment struct {
	rate float64
	recs []serveRec
	wall time.Duration
}

func runServe(cfg runConfig) (*report, error) {
	cache := taskgen.DefaultConfig().Platform.Cache
	var extractMS []float64
	st, setupS, err := repeatSetup(cfg, func(rep int) (*serveState, error) {
		t0 := time.Now()
		var err error
		if rep == 0 {
			_, err = taskgen.PoolFromSuite(cache)
		} else {
			_, err = benchsuite.ExtractAll(cache)
		}
		if err != nil {
			return nil, err
		}
		extractMS = append(extractMS, ms(time.Since(t0)))
		pool, err := taskgen.PoolFromSuite(cache)
		if err != nil {
			return nil, err
		}
		in, err := newServeInputs(cfg.seed, pool)
		if err != nil {
			return nil, err
		}
		fl, err := startFleet(serveNodes, cfg.trace)
		if err != nil {
			return nil, err
		}
		s := &serveState{seed: cfg.seed, in: in, fl: fl}
		for j := 0; j < nproc(); j++ {
			s.cls = append(s.cls, newClient())
		}
		// Warm-up: every base through every node, so owners cache and
		// edges fill; the keys must be the ones computed locally.
		for bi, b := range in.bases {
			for j := range s.cls {
				status, data, err := s.cls[j].post(fl.nodes[j%serveNodes].url+"/v1/analyze", b.body(b.pd), "")
				var env envelope
				if err == nil && status == http.StatusOK {
					err = json.Unmarshal(data, &env)
				}
				if err != nil || status != http.StatusOK || env.Key != b.key {
					s.close()
					return nil, fmt.Errorf("warm-up base %d: status %d, key %q (want %q), err %v", bi, status, env.Key, b.key, err)
				}
			}
		}
		return s, nil
	}, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	rep := newReport()
	var segs []*serveSegment
	// measure runs one open-loop segment and reconciles its client
	// counts with the fleet's; it returns the segment and the fleet's
	// counter deltas.
	measure := func(rate float64, d time.Duration, rl *reqLog) (*serveSegment, metricsDoc, error) {
		before, err := st.fl.scrape()
		if err != nil {
			return nil, before, err
		}
		st.fl.log.Store(rl)
		seg := st.openLoop(rate, d, rl)
		st.fl.log.Store(nil)
		after, err := st.fl.scrape()
		if err != nil {
			return nil, after, err
		}
		delta := after.sub(before)
		crossCheck(rep, delta, recsOf(seg))
		segs = append(segs, seg)
		return seg, delta, nil
	}

	var seg *serveSegment
	if !cfg.trace {
		if seg, _, err = measure(serveRate, cfg.seconds, nil); err != nil {
			return nil, err
		}
	} else {
		installIDTransport.Do(func() { http.DefaultTransport = idTransport{base: http.DefaultTransport} })
		// Half the run at the nominal rate, untraced and traced eighths
		// alternating so drift does not bias the tracing overhead; the
		// other half climbs the max_rate_rps ladder.
		tr := newTracer()
		rl := newReqLog(tr, serveNodes)
		var untraced *serveSegment
		var traced metricsDoc
		for q := 0; q < 4; q++ {
			var log *reqLog
			if q%2 == 1 {
				log = rl
			}
			s, delta, err := measure(serveRate, cfg.seconds/8, log)
			if err != nil {
				return nil, err
			}
			if q%2 == 1 {
				seg, traced = seg.merge(s), traced.add(delta)
			} else {
				untraced = untraced.merge(s)
			}
		}
		byID := map[string]serveRec{}
		for _, r := range seg.recs {
			byID[r.id] = r
		}
		owner := func(r reqRecord) int { return st.fl.owner(st.keyOf(byID[r.id])) }
		serverLayers(rep, traced, recsOf(seg), rl, owner)
		st.perClass(rep, cfg.steal, seg)
		_, ul := latencies(cfg.steal, untraced.recs, -1)
		_, tl := latencies(cfg.steal, seg.recs, -1)
		rep.set("trace.overhead_share", median(tl)/median(ul)-1, "share", len(tl))
		rep.set("benchsuite.extract_ms", median(extractMS), "ms", len(extractMS))

		// max_rate_rps: the nominal rate, then the ladder, each step
		// judged by the same limit; the climb stops at the first miss.
		stepDur := cfg.seconds / 2 / time.Duration(len(serveLadder))
		maxRate := 0.0
		if ok, why := meetsLimit(cfg.steal, untraced); ok {
			maxRate = serveRate
			for _, m := range serveLadder {
				s, _, err := measure(serveRate*m, stepDur, nil)
				if err != nil {
					return nil, err
				}
				ok, why := meetsLimit(cfg.steal, s)
				fmt.Fprintf(cfg.stdout, "ladder %6.1f req/s: %v %s\n", s.rate, ok, why)
				if !ok {
					break
				}
				maxRate = s.rate
			}
		} else {
			fmt.Fprintf(cfg.stdout, "nominal rate misses the limit: %s\n", why)
		}
		rep.set("serve.max_rate_rps", maxRate, "1/s", len(serveLadder)+1)
		finishTrace(cfg, rep, tr)
	}

	for _, s := range segs {
		rep.attempted += len(s.recs)
		for _, r := range s.recs {
			if r.failed {
				rep.failed++
			}
		}
	}
	st.check(rep, segs)

	lat, _ := latencies(cfg.steal, seg.recs, -1)
	ok := 0
	for _, r := range seg.recs {
		if !r.failed {
			ok++
		}
	}
	rep.set("setup_s", setupS, "s", setupReps)
	rep.set("throughput", float64(ok)/seg.wall.Seconds(), "1/s", ok)
	rep.setDist("latency_p50_ms", "latency_p99_ms", summarizeRun(lat), "ms")
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	var lateness []float64
	for _, r := range seg.recs {
		lateness = append(lateness, ms(r.sent.Sub(r.due)))
	}
	ld := summarize(lateness)
	rep.setNote("serve.lateness_p99_ms", ld.tail, "ms", ld.n, fmt.Sprintf("generator lateness at p%.2f", 100*ld.tailQ))
	if cfg.trace {
		rep.set("failed_share", share(float64(rep.failed), float64(rep.attempted)), "share", rep.attempted)
		fillAbsent(rep)
	}
	return rep, nil
}

// merge returns the concatenation of s (nil: none) and o.
func (s *serveSegment) merge(o *serveSegment) *serveSegment {
	if s == nil {
		return o
	}
	return &serveSegment{rate: s.rate, recs: append(append([]serveRec(nil), s.recs...), o.recs...), wall: s.wall + o.wall}
}

func recsOf(seg *serveSegment) []reqRecord {
	out := make([]reqRecord, len(seg.recs))
	for i, r := range seg.recs {
		out[i] = r.reqRecord
	}
	return out
}

// latencies returns the from-due latencies (ms, steal-adjusted) of the
// segment's requests of one class (-1: all), failed requests included:
// a failed request misses any limit, so it must not drop out of the
// tail. The second slice holds only the successful ones.
func latencies(m *stealMeter, recs []serveRec, class int) (all, ok []float64) {
	for _, r := range recs {
		if class >= 0 && r.p.class != class {
			continue
		}
		l := m.adjustMS(r.due, r.done)
		all = append(all, l)
		if !r.failed {
			ok = append(ok, l)
		}
	}
	return all, ok
}

// meetsLimit judges one fixed-rate segment: every request answered
// 200, tail latency within serveLimit, and no backlog growing through
// the segment (the last quarter's median lateness within the limit).
func meetsLimit(m *stealMeter, seg *serveSegment) (bool, string) {
	lat, _ := latencies(m, seg.recs, -1)
	d := summarize(lat)
	failed := 0
	for _, r := range seg.recs {
		if r.failed {
			failed++
		}
	}
	var late []float64
	for _, r := range seg.recs[len(seg.recs)*3/4:] {
		late = append(late, ms(r.sent.Sub(r.due)))
	}
	lastLate := median(late)
	why := fmt.Sprintf("(p%.2f %.2fms, %d failed, end lateness %.2fms)", 100*d.tailQ, d.tail, failed, lastLate)
	return failed == 0 && d.tail <= ms(serveLimit) && lastLate <= ms(serveLimit), why
}

// openLoop sends requests on a fixed schedule at rate for d. Sender j
// owns every request i with i%senders == j and one connection to node
// j%nodes; each request is timed from its due time, so a sender held
// up by a slow answer charges the delay to the requests it delays.
func (s *serveState) openLoop(rate float64, d time.Duration, rl *reqLog) *serveSegment {
	n := int(rate * d.Seconds())
	k0 := s.next
	s.next += n
	pl := plan(s.seed, k0, n)
	seg := &serveSegment{rate: rate, recs: make([]serveRec, n)}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for j := range s.cls {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			nd := j % serveNodes
			var tk *telemetry.Track
			if rl != nil {
				tk = rl.tr.track(fmt.Sprintf("sender %d", j))
			}
			for i := j; i < n; i += len(s.cls) {
				k := k0 + i
				path, body, err := s.in.request(pl[i], k)
				r := serveRec{k: k, p: pl[i]}
				r.node = nd
				r.due = start.Add(time.Duration(i) * interval)
				if wait := time.Until(r.due); wait > 0 {
					time.Sleep(wait)
				}
				if rl != nil {
					r.id = "s" + strconv.Itoa(k)
				}
				sp := rl.tracer().begin(tk, "client", classNames[pl[i].class], -1)
				if rl != nil {
					rl.setSpan(roleClient, r.id, sp.id)
				}
				r.sent = time.Now()
				var data []byte
				if err == nil {
					r.status, data, err = s.cls[j].post(s.fl.nodes[nd].url+path, body, r.id)
				}
				r.done = time.Now()
				sp.end()
				r.failed = err != nil || r.status != http.StatusOK
				if k%serveCheckEvery == 0 {
					r.resp = data
				}
				seg.recs[i] = r
			}
		}(j)
	}
	wg.Wait()
	seg.wall = time.Since(start)
	return seg
}

// keyOf is the canonical key request r routes on (the base key for a
// delta, which routes on its base).
func (s *serveState) keyOf(r serveRec) string {
	if r.p.class == classDelta {
		return s.in.bases[r.p.base].key
	}
	return core.CanonicalKey(s.in.taskSet(r.p, r.k), s.in.cfgs)
}

// perClass reports the traced segment's per-class and per-route client
// latencies; a request's route is "owner" when the node it was sent to
// owns its key and "proxied" otherwise.
func (s *serveState) perClass(rep *report, m *stealMeter, seg *serveSegment) {
	for c := 0; c < numClasses; c++ {
		lat, _ := latencies(m, seg.recs, c)
		prefix := "serve." + classNames[c] + "."
		rep.setDist(prefix+"latency_p50_ms", prefix+"latency_p99_ms", summarize(lat), "ms")
	}
	var owner, proxied []float64
	for _, r := range seg.recs {
		l := m.adjustMS(r.due, r.done)
		if s.fl.owner(s.keyOf(r)) == r.node {
			owner = append(owner, l)
		} else {
			proxied = append(proxied, l)
		}
	}
	rep.setDist("route.owner.latency_p50_ms", "route.owner.latency_p99_ms", summarize(owner), "ms")
	rep.setDist("route.proxied.latency_p50_ms", "route.proxied.latency_p99_ms", summarize(proxied), "ms")
}

// check compares every sampled response with a direct core.AnalyzeAll
// of the same inputs: the results must be byte-identical and the key
// canonical.
func (s *serveState) check(rep *report, segs []*serveSegment) {
	checked := 0
	for _, seg := range segs {
		for _, r := range seg.recs {
			if r.resp == nil || r.failed {
				continue
			}
			checked++
			var env envelope
			want, key, err := expectedResults(s.in.taskSet(r.p, r.k), s.in.cfgs)
			if err == nil {
				err = json.Unmarshal(r.resp, &env)
			}
			if err != nil || env.Key != key || !bytes.Equal(env.Results, want) {
				rep.failed++
				rep.problem("serve request %d (%s): response differs from core.AnalyzeAll (err %v)", r.k, classNames[r.p.class], err)
			}
		}
	}
	if checked == 0 {
		rep.problem("serve: no response sampled for the output check")
	}
}

// serveDigest fingerprints a run's inputs: every base's request body
// and the first n planned requests' bodies.
func serveDigest(seed int64, n int) (string, error) {
	pool, err := taskgen.PoolFromSuite(taskgen.DefaultConfig().Platform.Cache)
	if err != nil {
		return "", err
	}
	in, err := newServeInputs(seed, pool)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, b := range in.bases {
		h.Write(b.body(b.pd))
	}
	for k, p := range plan(seed, 0, n) {
		path, body, err := in.request(p, k)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(h, path)
		h.Write(body)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
