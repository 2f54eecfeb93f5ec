// Package experiments regenerates every table and figure of the
// paper's evaluation (Section V):
//
//	Table I  — benchmark parameters extracted by the static analysis
//	Fig. 2a-c — schedulable task sets vs. per-core utilization for the
//	            FP, RR and TDMA buses, with and without persistence,
//	            plus the perfect-bus reference
//	Fig. 3a-d — weighted schedulability vs. number of cores, memory
//	            reload time d_mem, cache size, and RR/TDMA slot size
//
// The schedulability extensions in extensions.go (CRPD approach,
// partitioning, priority assignment, generation methodology) run on
// the same sweep runtime as the figures.
//
// Each study returns a chart-ready Study that can be rendered as ASCII
// art or CSV. Absolute counts depend on the number of random task sets
// per data point (1000 in the paper; configurable here) — the
// reproduction target is the shape: persistence-aware curves dominate,
// FP > RR > TDMA, and the trends across each swept parameter.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
	"repro/internal/textplot"
)

// ErrInterrupted reports that a study was cut short by its context.
// The study returned alongside it is valid but built from the samples
// analyzed before the interruption — a partial result, not the full
// sweep.
var ErrInterrupted = errors.New("experiments: interrupted")

// Variant names one analysis configuration plotted as a series.
type Variant struct {
	Name string
	core.Config
}

// PaperVariants returns the six analyses the paper compares.
func PaperVariants() []Variant {
	return []Variant{
		{"FP", core.Config{Arbiter: core.FP}},
		{"FP-CP", core.Config{Arbiter: core.FP, Persistence: true}},
		{"RR", core.Config{Arbiter: core.RR}},
		{"RR-CP", core.Config{Arbiter: core.RR, Persistence: true}},
		{"TDMA", core.Config{Arbiter: core.TDMA}},
		{"TDMA-CP", core.Config{Arbiter: core.TDMA, Persistence: true}},
	}
}

// Options tunes a study run.
type Options struct {
	// TaskSetsPerPoint is the number of random task sets per data point
	// (the paper uses 1000). Default 50.
	TaskSetsPerPoint int
	// Seed is the base RNG seed; every (point, index) pair derives a
	// unique deterministic seed from it.
	Seed int64
	// Workers bounds analysis parallelism. Default GOMAXPROCS.
	Workers int
	// Utilizations are the per-core utilization steps of the sweep.
	// Default 0.05..1.00 in steps of 0.05 (the paper's grid).
	Utilizations []float64
	// Base is the generation configuration studies start from.
	// Default taskgen.DefaultConfig().
	Base taskgen.Config
	// Observer receives telemetry from every analysis and from the
	// benchmark-pool memoization. nil disables instrumentation.
	Observer *telemetry.Observer
	// Context, when non-nil, interrupts the sweep: in-flight
	// generation and analyses finish, the remaining ones are skipped,
	// and the study is built from the samples gathered so far and
	// returned together with ErrInterrupted.
	Context context.Context
	// Progress, when non-nil, is called after every analyzed task set.
	// Called from worker goroutines; must be safe for concurrent use.
	Progress func(ProgressUpdate)
	// Shard restricts the sweep to the jobs a deterministic hash of
	// the job key assigns to this shard (see internal/checkpoint): n
	// processes running the same study with shards 0/n..n-1/n analyze
	// disjoint job sets whose checkpoint files merge into the exact
	// single-process result. The zero value owns every job.
	Shard checkpoint.Shard
	// Checkpoint, when non-nil, makes the sweep resumable: jobs with a
	// recorded outcome are neither regenerated nor reanalyzed — their
	// recorded verdicts enter the fold directly — and every job this
	// run completes (or fails) is recorded as it finishes. Because a
	// job's seed depends only on (Seed, sample, utilization), a
	// resumed sweep is bit-identical to an uninterrupted one.
	Checkpoint *checkpoint.Log
	// OnJobFailure, when non-nil, observes every isolated job failure:
	// a job whose analysis panicked past the reference-analyzer retry
	// (or whose generation panicked), recorded as a failed data point
	// instead of aborting the sweep. stack is the original panic's
	// stack, nil for plain errors. Called from worker goroutines; must
	// be safe for concurrent use.
	OnJobFailure func(key string, err error, stack []byte)
	// Analyze, when non-nil, replaces the in-process engine for the
	// sweep's analysis phase. It must honor the core.AnalyzeBatchOpts
	// contract: results in request order, OnResult as requests
	// complete, OnFailure for per-request terminal failures, and
	// partial results plus the context error on cancellation.
	// cmd/experiments -cluster installs a fleet client here
	// (cluster.Client.AnalyzeBatch); because generation, the fold and
	// checkpointing are untouched, the study stays byte-identical to a
	// local run.
	Analyze func([]core.BatchRequest, core.BatchOptions) ([][]*core.Result, error)
}

// ProgressUpdate is one live progress snapshot of a sweep.
type ProgressUpdate struct {
	// Done and Total count analyzed vs planned task sets.
	Done, Total int
	// Verdicts counts per-variant analyses finished so far; Schedulable
	// counts how many of those verdicts were positive.
	Verdicts, Schedulable int64
}

// ctx returns the sweep context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) withDefaults() Options {
	if o.TaskSetsPerPoint <= 0 {
		o.TaskSetsPerPoint = 50
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if len(o.Utilizations) == 0 {
		o.Utilizations = DefaultUtilizations()
	}
	if o.Base.TasksPerCore == 0 {
		o.Base = taskgen.DefaultConfig()
	}
	return o
}

// Study is the chart-ready outcome of one experiment.
type Study struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Xs     []float64
	Series []textplot.Series
	// Intervals optionally carries 95% Wilson confidence bounds per
	// series (same indexing as Series[i].Values); emitted by WriteCSV
	// as <name>-lo95 / <name>-hi95 columns.
	Intervals map[string][2][]float64
	// TaskSetsPerPoint records the sample size the study ran with.
	TaskSetsPerPoint int
}

// WriteCSV emits the study data, including confidence-interval columns
// when present.
func (s *Study) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("x")
	for _, ser := range s.Series {
		b.WriteString("," + ser.Name)
		if _, ok := s.Intervals[ser.Name]; ok {
			b.WriteString("," + ser.Name + "-lo95," + ser.Name + "-hi95")
		}
	}
	b.WriteByte('\n')
	for i, x := range s.Xs {
		fmt.Fprintf(&b, "%g", x)
		for _, ser := range s.Series {
			fmt.Fprintf(&b, ",%g", ser.Values[i])
			if ci, ok := s.Intervals[ser.Name]; ok {
				fmt.Fprintf(&b, ",%g,%g", ci[0][i], ci[1][i])
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Chart wraps the study for rendering.
func (s *Study) Chart() *textplot.Chart {
	return &textplot.Chart{
		Title:  fmt.Sprintf("%s — %s", s.ID, s.Title),
		XLabel: s.XLabel,
		YLabel: s.YLabel,
		Xs:     s.Xs,
		Series: s.Series,
		YMin:   0,
		YMax:   1,
	}
}

// variantConfigs maps variants to the analysis configurations they
// run.
func variantConfigs(variants []Variant) []core.Config {
	cfgs := make([]core.Config, len(variants))
	for i, v := range variants {
		cfgs[i] = v.Config
	}
	return cfgs
}

// verdictMap folds per-config results into the name→schedulable map
// the series reductions consume.
func verdictMap(results []*core.Result, variants []Variant) map[string]bool {
	out := make(map[string]bool, len(variants))
	for i, v := range variants {
		out[v.Name] = results[i].Schedulable
	}
	return out
}

// pointJob is one (x-point, utilization, sample-index) work item of a
// sweep.
type pointJob struct {
	pointIdx int
	util     float64
	sample   int
}

// sample is the outcome of one analysed task set.
type sample struct {
	util    float64 // actual average per-core utilization
	verdict map[string]bool
}

// jobState classifies a sweep job against the checkpoint and shard.
type jobState uint8

const (
	// jobPending jobs are generated and analyzed by this process.
	jobPending jobState = iota
	// jobRecorded jobs carry a checkpointed outcome; they enter the
	// fold without any recomputation.
	jobRecorded
	// jobForeign jobs belong to another shard; they are skipped
	// entirely and contribute no samples here.
	jobForeign
)

// ckptSink serializes checkpoint writes from sweep workers and keeps
// the first persistence error — a failing checkpoint must fail the
// run loudly, or the operator believes work is durable when it isn't.
type ckptSink struct {
	log *checkpoint.Log
	mu  sync.Mutex
	err error
}

func (c *ckptSink) add(rec checkpoint.Record) {
	if err := c.log.Add(rec); err != nil {
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
	}
}

func (c *ckptSink) firstErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// sweep generates and analyses TaskSetsPerPoint task sets for every
// (point, utilization) combination. configAt returns the generation
// config and benchmark pool for a point index; utilsFor returns the
// utilizations swept at that point. prepare, when non-nil, sees every
// freshly generated set before analysis: it returns the set to analyze
// (the same one, possibly modified, or a replacement), or nil to mark
// the set infeasible — a sample on which every variant is
// unschedulable, recorded without analysis. A prepare error aborts
// the sweep like a generation error.
//
// With a canceled context generation and analysis stop handing out
// jobs, and the partial per-point samples are returned together with
// ErrInterrupted; callers fold them into a partial study. Jobs
// recorded in opts.Checkpoint are reused, jobs owned by other shards
// are skipped, and a panicking job degrades into a recorded per-job
// failure instead of killing the sweep.
func sweep(opts Options, numPoints int,
	configAt func(point int) (taskgen.Config, []taskgen.TaskParams, error),
	utilsFor func(point int) []float64,
	variants []Variant,
	prepare func(point int, ts *taskmodel.TaskSet) (*taskmodel.TaskSet, error),
) ([][]sample, error) {
	opts = opts.withDefaults()
	ctx := opts.ctx()

	cfgs := make([]taskgen.Config, numPoints)
	pools := make([][]taskgen.TaskParams, numPoints)
	var jobs []pointJob
	for p := 0; p < numPoints; p++ {
		cfg, pool, err := configAt(p)
		if err != nil {
			return nil, err
		}
		cfgs[p], pools[p] = cfg, pool
		for _, u := range utilsFor(p) {
			for s := 0; s < opts.TaskSetsPerPoint; s++ {
				jobs = append(jobs, pointJob{pointIdx: p, util: u, sample: s})
			}
		}
	}

	// Classify every job. The canonical job order (point, utilization,
	// sample) is what makes resumption and merging reproducible: the
	// fold below walks this order regardless of which process computed
	// which job, so the folded samples — and every byte of the study
	// derived from them — match an uninterrupted single-process run.
	keys := make([]string, len(jobs))
	states := make([]jobState, len(jobs))
	records := make([]checkpoint.Record, len(jobs))
	for ji, j := range jobs {
		keys[ji] = jobKey(j.pointIdx, j.util, j.sample)
		if rec, ok := opts.Checkpoint.Lookup(keys[ji]); ok {
			states[ji], records[ji] = jobRecorded, rec
		} else if !opts.Shard.Owns(keys[ji]) {
			states[ji] = jobForeign
		}
	}
	// fail records one isolated job failure; the sweep.job_failures
	// counter is bumped by the caller (core's batch already counts
	// analysis failures; generation panics are counted here).
	sink := &ckptSink{log: opts.Checkpoint}
	fail := func(ji int, err error, stack []byte) {
		sink.add(checkpoint.Record{Key: keys[ji], Failed: true, Err: err.Error()})
		if opts.OnJobFailure != nil {
			opts.OnJobFailure(keys[ji], err, stack)
		}
	}

	// Phase 1: generate (and prepare) the pending jobs' task sets.
	// Generation is cheap next to analysis but still worth
	// parallelising. A panic in the generator or in prepare is
	// isolated to its job (both are deterministic, so there is no
	// point retrying); a plain error still aborts the sweep — it
	// signals a misconfiguration that would fail every job. An
	// infeasible set is recorded on the spot and folds like a
	// checkpointed job.
	sets := make([]*taskmodel.TaskSet, len(jobs))
	genErrs := make([]error, len(jobs))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One generator per worker, re-seeded per job: the same
			// stream as a fresh rand.New(rand.NewSource(seed)) without
			// allocating a new ~5 KB source for every set.
			rng := rand.New(rand.NewSource(0))
			for ji := range work {
				j := jobs[ji]
				cfg := cfgs[j.pointIdx]
				cfg.CoreUtilization = j.util
				// The seed deliberately excludes the point index: every
				// swept parameter value sees the same random task sets
				// (paired samples), so series differ only through the
				// analysis, not the sample.
				seed := seedFor(opts.Seed, j.sample, j.util)
				func() {
					defer func() {
						if r := recover(); r != nil {
							opts.Observer.Add(telemetry.CtrJobPanics, 1)
							opts.Observer.Add(telemetry.CtrJobFailures, 1)
							sets[ji] = nil
							fail(ji, fmt.Errorf("generation panic: %v", r), debug.Stack())
						}
					}()
					rng.Seed(seed)
					ts, err := taskgen.Generate(cfg, pools[j.pointIdx], rng)
					if err == nil && prepare != nil {
						gen := ts
						if ts, err = prepare(j.pointIdx, gen); err == nil && ts == nil {
							states[ji] = jobRecorded
							records[ji] = checkpoint.Record{Key: keys[ji], Util: perCoreUtil(gen)}
							sink.add(records[ji])
						}
					}
					sets[ji], genErrs[ji] = ts, err
				}()
			}
		}()
	}
	cut := false
	for ji := range jobs {
		if ctx.Err() != nil {
			cut = true
			break
		}
		if states[ji] == jobPending {
			work <- ji
		}
	}
	close(work)
	wg.Wait()
	for _, err := range genErrs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: analyse every pending set under every variant through
	// the shared worker pool. Within one request AnalyzeAll reuses the
	// precomputed interference tables across the variants. Panics are
	// isolated per job: the batch retries a panicking job once on the
	// naive reference analyzer and reports terminal failures through
	// OnFailure instead of aborting.
	varCfgs := variantConfigs(variants)
	var reqs []core.BatchRequest
	var reqJob []int // request index -> job index
	jobReq := make([]int, len(jobs))
	for ji := range jobs {
		jobReq[ji] = -1
		if states[ji] != jobPending || sets[ji] == nil {
			continue
		}
		jobReq[ji] = len(reqs)
		reqJob = append(reqJob, ji)
		reqs = append(reqs, core.BatchRequest{
			TS:    sets[ji],
			Cfgs:  varCfgs,
			Label: fmt.Sprintf("p%d u=%.2f #%d", jobs[ji].pointIdx, jobs[ji].util, jobs[ji].sample),
		})
	}
	var done, verdicts, sched atomic.Int64
	total := len(reqs)
	onResult := func(ri int, res []*core.Result, _ string) {
		ji := reqJob[ri]
		if res != nil {
			sink.add(checkpoint.Record{
				Key:      keys[ji],
				Util:     perCoreUtil(sets[ji]),
				Verdicts: verdictMap(res, variants),
			})
		}
		if opts.Progress == nil {
			return
		}
		d := done.Add(1)
		var v, s int64
		for _, r := range res {
			v++
			if r.Schedulable {
				s++
			}
		}
		opts.Progress(ProgressUpdate{
			Done: int(d), Total: total,
			Verdicts: verdicts.Add(v), Schedulable: sched.Add(s),
		})
	}
	analyze := core.AnalyzeBatchOpts
	if opts.Analyze != nil {
		analyze = opts.Analyze
	}
	all, err := analyze(reqs, core.BatchOptions{
		Workers:  opts.Workers,
		Observer: opts.Observer,
		Context:  ctx,
		OnResult: onResult,
		OnFailure: func(ri int, _ string, err error, stack []byte) {
			fail(reqJob[ri], err, stack)
		},
	})
	interrupted := cut
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		interrupted = true
	}
	// Persist whatever completed — exactly what an interrupt needs to
	// salvage — and surface any checkpointing failure.
	if ferr := opts.Checkpoint.Flush(); ferr != nil {
		return nil, ferr
	}
	if cerr := sink.firstErr(); cerr != nil {
		return nil, cerr
	}

	perPoint := make([][]sample, numPoints)
	for ji, j := range jobs {
		switch states[ji] {
		case jobForeign:
			continue
		case jobRecorded:
			if records[ji].Failed {
				continue
			}
			perPoint[j.pointIdx] = append(perPoint[j.pointIdx], sample{
				util:    records[ji].Util,
				verdict: records[ji].Verdicts,
			})
		default:
			ri := jobReq[ji]
			if ri < 0 || all[ri] == nil {
				// Failed, or skipped after the interrupt.
				continue
			}
			perPoint[j.pointIdx] = append(perPoint[j.pointIdx], sample{
				util:    perCoreUtil(sets[ji]),
				verdict: verdictMap(all[ri], variants),
			})
		}
	}
	if interrupted {
		return perPoint, ErrInterrupted
	}
	return perPoint, nil
}

// perCoreUtil is a generated set's actual average per-core
// utilization, the x-weight of its sample.
func perCoreUtil(ts *taskmodel.TaskSet) float64 {
	return ts.TotalUtilization() / float64(ts.Platform.NumCores)
}

// weightedSeries reduces sweep samples to one weighted-schedulability
// value per point and variant.
func weightedSeries(perPoint [][]sample, variants []Variant) []textplot.Series {
	series := make([]textplot.Series, len(variants))
	for vi, v := range variants {
		vals := make([]float64, len(perPoint))
		for p, samples := range perPoint {
			obs := make([]stats.Observation, 0, len(samples))
			for _, s := range samples {
				obs = append(obs, stats.Observation{Utilization: s.util, Schedulable: s.verdict[v.Name]})
			}
			vals[p] = stats.WeightedSchedulability(obs)
		}
		series[vi] = textplot.Series{Name: v.Name, Values: vals}
	}
	return series
}
