package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// The sweep workload is the paper's Fig. 3a study, run the way a
// design-space exploration runs it: repeated experiments.Fig3a calls
// over 2..10 cores and the full 0.05..1.00 utilization grid under the
// six paper variants, Workers = nproc, no memo. One operation is one
// task set analyzed under the six variants. The cold engine (taskgen,
// tables, curves, the fixed point, the batch pool) does nearly all the
// work; memo, server and cluster do none.

// sweepSetsPerPoint sizes one Fig3a call: 5 core counts × 20
// utilizations × sweepSetsPerPoint task sets.
const sweepSetsPerPoint = 4

// sweepChecks is how many analyzed task sets the run re-analyzes with
// core.AnalyzeReference after the measured phase.
const sweepChecks = 12

// sweepSeed derives the Fig3a seed of call i from the run seed.
func sweepSeed(seed int64, i int) int64 { return seed<<24 + int64(i) }

// sweepCall is what one Fig3a call measured.
type sweepCall struct {
	total, generate, batch, fold time.Duration
	ops                          [][2]time.Time // start and end of every operation
	lat                          []float64      // per operation, ms, steal-adjusted
	failed                       int
	sample                       *sweepSample
}

// sweepSample is one analyzed task set kept for the reference check.
type sweepSample struct {
	ts   *taskmodel.TaskSet
	cfgs []core.Config
	got  []*core.Result
}

// sweepSegment is a run of back-to-back Fig3a calls.
type sweepSegment struct {
	calls []sweepCall
	wall  time.Duration // steal-adjusted
}

// merge appends segment o to s (nil s: o).
func (s *sweepSegment) merge(o *sweepSegment) *sweepSegment {
	if s == nil {
		return o
	}
	s.calls = append(s.calls, o.calls...)
	s.wall += o.wall
	return s
}

func (s *sweepSegment) ops() (ops, failed int, lat []float64) {
	for _, c := range s.calls {
		ops += len(c.ops)
		failed += c.failed
		lat = append(lat, c.lat...)
	}
	return ops, failed, lat
}

func runSweep(cfg runConfig) (*report, error) {
	cache := taskgen.DefaultConfig().Platform.Cache
	var extractMS []float64
	_, setupS, err := repeatSetup(cfg, func(rep int) (struct{}, error) {
		// The first build pays the cold taskgen.PoolFromSuite; later builds
		// would hit its per-geometry memo, so they redo the same cold
		// extraction through benchsuite.ExtractAll.
		t0 := time.Now()
		var err error
		if rep == 0 {
			_, err = taskgen.PoolFromSuite(cache)
		} else {
			_, err = benchsuite.ExtractAll(cache)
		}
		if err != nil {
			return struct{}{}, err
		}
		extractMS = append(extractMS, ms(time.Since(t0)))
		// Warm-up: one small study, off the measured seed sequence.
		_, err = experiments.Fig3a(experiments.Options{TaskSetsPerPoint: 1, Seed: -cfg.seed - 1, Workers: nproc()})
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}

	rep := newReport()
	var seg, untraced *sweepSegment
	var tr *tracer
	var obs *telemetry.Observer
	next := 0
	if !cfg.trace {
		seg = sweepRun(cfg, cfg.seconds, &next, nil, nil)
	} else {
		// Untraced and traced quarters alternate, so drift through the run
		// does not bias the tracing overhead.
		tr = newTracer()
		obs = telemetry.New()
		for q := 0; q < 4; q++ {
			if q%2 == 1 {
				seg = seg.merge(sweepRun(cfg, cfg.seconds/4, &next, tr, obs))
			} else {
				untraced = untraced.merge(sweepRun(cfg, cfg.seconds/4, &next, nil, nil))
			}
		}
	}

	ops, failed, lat := seg.ops()
	rep.attempted, rep.failed = ops, failed
	if untraced != nil {
		o, f, _ := untraced.ops()
		rep.attempted += o
		rep.failed += f
	}
	sweepCheck(rep, seg, untraced)

	d := summarizeRun(lat)
	rep.set("setup_s", setupS, "s", setupReps)
	rep.set("throughput", float64(ops)/seg.wall.Seconds(), "1/s", ops)
	rep.setDist("latency_p50_ms", "latency_p99_ms", d, "ms")
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	if !cfg.trace {
		return rep, nil
	}

	var gen, batch, fold []float64
	for _, c := range seg.calls {
		gen = append(gen, c.generate.Seconds())
		batch = append(batch, c.batch.Seconds())
		fold = append(fold, c.fold.Seconds())
	}
	rep.set("experiments.generate_s", median(gen), "s", len(gen))
	rep.set("experiments.fold_s", median(fold), "s", len(fold))
	rep.set("core.batch_s", median(batch), "s", len(batch))
	rep.set("benchsuite.extract_ms", median(extractMS), "ms", len(extractMS))
	engineCounters(rep, obs.Metrics.Get, ops)
	_, _, ulat := untraced.ops()
	rep.set("trace.overhead_share", median(lat)/median(ulat)-1, "share", len(lat))
	rep.set("failed_share", share(float64(rep.failed), float64(rep.attempted)), "share", rep.attempted)
	finishTrace(cfg, rep, tr)
	fillAbsent(rep)
	return rep, nil
}

// sweepRun runs Fig3a calls back to back until d has elapsed, timing
// each call from outside: call start to hook entry is generation, the
// hook is the engine batch, hook exit to call return is the fold.
// *next is the index of the next call's seed, so segments of one run
// never repeat inputs.
func sweepRun(cfg runConfig, d time.Duration, next *int, tr *tracer, obs *telemetry.Observer) *sweepSegment {
	seg := &sweepSegment{}
	tk := tr.track("sweep")
	wl := tr.begin(tk, "workload", "sweep", -1)
	start := time.Now()
	for time.Since(start) < d {
		i := *next
		*next++
		c := sweepCall{}
		callStart := time.Now()
		fsp := tr.begin(tk, "experiments.Fig3a", "Fig3a #"+strconv.Itoa(i), wl.id)
		var mu sync.Mutex
		opts := experiments.Options{
			TaskSetsPerPoint: sweepSetsPerPoint,
			Seed:             sweepSeed(cfg.seed, i),
			Workers:          nproc(),
			Observer:         obs,
			Analyze: func(reqs []core.BatchRequest, bo core.BatchOptions) ([][]*core.Result, error) {
				hookStart := time.Now()
				c.generate = hookStart.Sub(callStart)
				hsp := tr.begin(tk, "core.batch", "Analyze hook", fsp.id)
				// Per-operation latency: a batch worker analyzes one request
				// at a time and calls OnResult from its own goroutine right
				// after each, so an operation runs from the worker's previous
				// OnResult (or the batch start) to its own.
				last := map[uint64]time.Time{}
				inner := bo.OnResult
				bo.OnResult = func(ri int, res []*core.Result, label string) {
					now := time.Now()
					g := goid()
					mu.Lock()
					from, ok := last[g]
					if !ok {
						from = hookStart
					}
					last[g] = now
					c.ops = append(c.ops, [2]time.Time{from, now})
					if res == nil {
						c.failed++
					}
					mu.Unlock()
					tr.record("op", from, now, hsp.id)
					if inner != nil {
						inner(ri, res, label)
					}
				}
				out, err := core.AnalyzeBatchOpts(reqs, bo)
				c.batch = time.Since(hookStart)
				hsp.end()
				if len(reqs) > 0 && err == nil {
					k := int(uint64(sweepSeed(cfg.seed, i)*2654435761) % uint64(len(reqs)))
					if out[k] != nil {
						c.sample = &sweepSample{ts: reqs[k].TS, cfgs: reqs[k].Cfgs, got: out[k]}
					}
				}
				return out, err
			},
		}
		study, err := experiments.Fig3a(opts)
		c.total = time.Since(callStart)
		c.fold = c.total - c.generate - c.batch
		fsp.end()
		if err != nil || study == nil || len(study.Series) != len(experiments.PaperVariants()) {
			c.failed = max(c.failed, 1)
		}
		seg.calls = append(seg.calls, c)
	}
	end := time.Now()
	cfg.steal.sample()
	for i := range seg.calls {
		for _, op := range seg.calls[i].ops {
			seg.calls[i].lat = append(seg.calls[i].lat, cfg.steal.adjustMS(op[0], op[1]))
		}
	}
	seg.wall = cfg.steal.adjust(start, end)
	wl.end()
	return seg
}

// sweepCheck re-analyzes a fixed number of the run's sampled task sets
// with the naive reference analyzer and requires identical results.
func sweepCheck(rep *report, segs ...*sweepSegment) {
	var samples []*sweepSample
	for _, s := range segs {
		if s == nil {
			continue
		}
		for _, c := range s.calls {
			if c.sample != nil {
				samples = append(samples, c.sample)
			}
		}
	}
	if len(samples) == 0 {
		rep.problem("sweep: no analyzed task set to check")
		return
	}
	n := min(sweepChecks, len(samples))
	for j := 0; j < n; j++ {
		s := samples[j*len(samples)/n]
		for ci, cfg := range s.cfgs {
			want, err := core.AnalyzeReference(s.ts, cfg)
			if err != nil || !reflect.DeepEqual(s.got[ci], want) {
				rep.failed++
				rep.problem("sweep: %d-task set under %+v differs from core.AnalyzeReference (err %v)", len(s.ts.Tasks), cfg, err)
			}
		}
	}
}

// goid returns the calling goroutine's ID, parsed from the header line
// runtime.Stack prints ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, b := range buf[len("goroutine "):n] {
		if b < '0' || b > '9' {
			break
		}
		id = id*10 + uint64(b-'0')
	}
	return id
}

// engineCounters reports the analysis engine's observer counters per
// operation, plus the breakpoint-jump share of inner iterations.
func engineCounters(rep *report, get func(telemetry.Counter) int64, ops int) {
	per := func(c telemetry.Counter) float64 { return share(float64(get(c)), float64(ops)) }
	for _, c := range []telemetry.Counter{
		telemetry.CtrRuns, telemetry.CtrOuterRounds, telemetry.CtrInnerIterations,
		telemetry.CtrBreakpointJumps, telemetry.CtrCurveBuilds,
		telemetry.CtrAbortDeadlineMiss, telemetry.CtrAbortNonConvergence,
	} {
		rep.set(c.String(), per(c), "1/op", ops)
	}
	rep.set("fp.jump_share", share(float64(get(telemetry.CtrBreakpointJumps)), float64(get(telemetry.CtrInnerIterations))), "share", int(get(telemetry.CtrInnerIterations)))
	memoShare := func(hit, wait, miss telemetry.Counter) float64 {
		h, w, x := get(hit), get(wait), get(miss)
		return share(float64(h), float64(h+w+x))
	}
	rep.set("core.memo_hit_share", memoShare(telemetry.CtrMemoHits, telemetry.CtrMemoWaits, telemetry.CtrMemoMisses), "share", ops)
	rep.set("core.curve_memo_hit_share", memoShare(telemetry.CtrCurveMemoHits, telemetry.CtrCurveMemoWaits, telemetry.CtrCurveMemoMisses), "share", ops)
	rep.set("core.memo_misses_per_op", per(telemetry.CtrMemoMisses), "1/op", ops)
	rep.set("core.curve_memo_misses_per_op", per(telemetry.CtrCurveMemoMisses), "1/op", ops)
	rep.set("core.memo_evictions", float64(get(telemetry.CtrMemoEvictions)+get(telemetry.CtrCurveMemoEvictions)), "count", ops)
}

// sweepDigest fingerprints the inputs the first calls of a sweep run
// would analyze: the canonical keys of every generated task set, in
// request order. No analysis runs.
func sweepDigest(seed int64, calls int) (string, error) {
	h := sha256.New()
	for i := 0; i < calls; i++ {
		_, err := experiments.Fig3a(experiments.Options{
			TaskSetsPerPoint: 1, Seed: sweepSeed(seed, i), Workers: 1,
			Analyze: func(reqs []core.BatchRequest, _ core.BatchOptions) ([][]*core.Result, error) {
				for _, r := range reqs {
					fmt.Fprintln(h, core.CanonicalKey(r.TS, r.Cfgs))
				}
				return make([][]*core.Result, len(reqs)), nil
			},
		})
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
