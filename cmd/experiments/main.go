// Command experiments regenerates the paper's evaluation — Table I and
// Figures 2a-2c and 3a-3d — plus the repository's extension studies.
// Each study renders an ASCII chart to stdout and, with -outdir,
// writes the underlying data as CSV.
//
// Usage:
//
//	experiments -exp all -tasksets 200 -outdir results/
//	experiments -exp fig2a
//	experiments -exp table1
//
// The paper uses 1000 task sets per data point; -tasksets trades
// fidelity for runtime (the shape stabilises well below 1000).
//
// A live progress line (task sets analyzed, schedulable ratio) is
// written to stderr; disable with -progress=false. Ctrl-C interrupts
// the sweep gracefully: the partial results gathered so far are still
// charted and flushed to CSV, and the process exits with code 130.
// Telemetry: -metrics prints analyzer counters, -trace FILE writes a
// Chrome trace-event JSON with per-worker span tracks (view at
// ui.perfetto.dev), -v enables debug logging.
//
// Large sweeps survive interruption and spread across machines:
//
//	experiments -exp fig2a -checkpoint ckpt/            # resumable
//	experiments -exp fig2a -checkpoint ckpt/ -resume    # continue it
//	experiments -exp fig2a -shard 0/2 -checkpoint ckpt/ # 1st of 2 procs
//	experiments -exp fig2a -shard 1/2 -checkpoint ckpt/ # 2nd of 2 procs
//	experiments merge -outdir results/ ckpt/*.json      # combine shards
//
// With a buscond fleet running (see cmd/buscond -peers), -cluster
// submits the sweep's analyses to the fleet instead of the in-process
// engine, each to the node that owns its canonical key. Everything
// else — generation, the fold, -checkpoint, -resume, -shard and merge
// — is the local sweep's, so the CSVs stay byte-identical to a local
// run:
//
//	experiments -exp fig2a -cluster 127.0.0.1:8080,127.0.0.1:8081
//
// -checkpoint DIR records every completed job (atomically, every few
// jobs or seconds) in DIR/<study>[.shardIofN].json; -resume reloads
// the file and skips recorded jobs. -shard i/n deterministically
// partitions the job list so n processes produce disjoint results;
// the merge mode combines their checkpoints into CSVs byte-identical
// to a single-process run (see DESIGN.md §10). A panicking job is
// retried on the naive reference analyzer and, failing that, recorded
// as a failed data point instead of killing the run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// progressPrinter renders a throttled single-line progress display.
// Safe for concurrent use (sweep workers report from goroutines).
type progressPrinter struct {
	w     io.Writer
	study string
	mu    sync.Mutex
	last  time.Time
	live  bool
}

func (p *progressPrinter) update(u experiments.ProgressUpdate) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if u.Done != u.Total && now.Sub(p.last) < 200*time.Millisecond {
		return
	}
	p.last = now
	p.live = true
	ratio := 0.0
	if u.Verdicts > 0 {
		ratio = 100 * float64(u.Schedulable) / float64(u.Verdicts)
	}
	fmt.Fprintf(p.w, "\r%s: %d/%d task sets analyzed, %.1f%% of verdicts schedulable   ",
		p.study, u.Done, u.Total, ratio)
}

// clear ends the live line so subsequent output starts clean.
func (p *progressPrinter) clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live {
		fmt.Fprintf(p.w, "\r%s\r", strings.Repeat(" ", 72))
		p.live = false
	}
}

// studyFn names one runnable sweep study. Every one of them goes
// through the parallel sweep runtime and supports
// -shard/-checkpoint/-resume/-cluster; table1, extassoc and exthier
// are not sweeps and are run separately.
type studyFn struct {
	name string
	run  func(experiments.Options) (*experiments.Study, error)
}

// studies is the registry shared by the regular run and the merge
// mode (which looks studies up by the name recorded in checkpoint
// headers).
var studies = []studyFn{
	{"fig2a", func(o experiments.Options) (*experiments.Study, error) { return experiments.Fig2(core.FP, o) }},
	{"fig2b", func(o experiments.Options) (*experiments.Study, error) { return experiments.Fig2(core.RR, o) }},
	{"fig2c", func(o experiments.Options) (*experiments.Study, error) { return experiments.Fig2(core.TDMA, o) }},
	{"fig2reg", func(o experiments.Options) (*experiments.Study, error) { return experiments.Fig2(core.Regulated, o) }},
	{"fig2par", func(o experiments.Options) (*experiments.Study, error) { return experiments.Fig2(core.ParAware, o) }},
	{"fig3a", experiments.Fig3a},
	{"fig3b", experiments.Fig3b},
	{"fig3c", experiments.Fig3c},
	{"fig3d", experiments.Fig3d},
	{"extcrpd", experiments.ExtCRPD},
	{"extpartition", experiments.ExtPartition},
	{"extopa", experiments.ExtOPA},
	{"extgen", experiments.ExtGen},
}

func studyByName(name string) (studyFn, bool) {
	for _, s := range studies {
		if s.name == name {
			return s, true
		}
	}
	return studyFn{}, false
}

// run executes the command against explicit streams. Exit codes: 0 ok,
// 1 error, 130 interrupted (partial results were still flushed).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	if len(args) > 0 && args[0] == "merge" {
		return runMerge(ctx, args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: table1, fig2a, fig2b, fig2c, fig2reg, fig2par, fig3a, fig3b, fig3c, fig3d, extassoc, exthier, extcrpd, extpartition, extopa, extgen, or all")
	tasksets := fs.Int("tasksets", 200, "random task sets per data point (paper: 1000)")
	seed := fs.Int64("seed", 2020, "base RNG seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	outdir := fs.String("outdir", "", "directory for CSV output (optional)")
	shardS := fs.String("shard", "", "run only shard i of n sweep jobs, e.g. 0/4; applies to every study but table1, extassoc and exthier (requires -checkpoint)")
	clusterS := fs.String("cluster", "", "comma-separated buscond fleet URLs; sweep analyses are served by the fleet instead of the in-process engine")
	clusterTimeout := fs.Duration("cluster-timeout", 0, "per-request deadline against the fleet (0 = 1m)")
	ckptDir := fs.String("checkpoint", "", "directory for per-study checkpoint files (enables resumable sweeps; every study but table1, extassoc and exthier)")
	resume := fs.Bool("resume", false, "reload existing checkpoints and skip completed jobs")
	ckptEvery := fs.Int("checkpoint-every", 64, "flush the checkpoint every K completed jobs")
	ckptInterval := fs.Duration("checkpoint-interval", 5*time.Second, "flush the checkpoint at least this often")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON file (view at ui.perfetto.dev)")
	metrics := fs.Bool("metrics", false, "print analyzer counters and histograms on exit")
	progress := fs.Bool("progress", true, "show a live progress line on stderr")
	verbose := fs.Bool("v", false, "enable debug logging")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}

	var shard checkpoint.Shard
	if *shardS != "" {
		var err error
		if shard, err = checkpoint.ParseShard(*shardS); err != nil {
			return 1, err
		}
		if *ckptDir == "" {
			return 1, fmt.Errorf("-shard requires -checkpoint: shard results only become a full study through their checkpoint files (experiments merge)")
		}
	}
	if *resume && *ckptDir == "" {
		return 1, fmt.Errorf("-resume requires -checkpoint")
	}
	var fleet *cluster.Client
	if *clusterS != "" {
		var err error
		if fleet, err = cluster.NewClient(strings.Split(*clusterS, ","), *clusterTimeout); err != nil {
			return 1, err
		}
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return 1, err
		}
	}

	sess, err := telemetry.StartSession(telemetry.SessionOptions{
		Tool:       "experiments",
		CPUProfile: *cpuprofile, MemProfile: *memprofile,
		TracePath: *tracePath, Metrics: *metrics,
		Verbose: *verbose, Out: stderr,
	})
	if err != nil {
		return 1, err
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil {
			fmt.Fprintln(stderr, "experiments:", cerr)
		}
	}()

	opts := experiments.Options{
		TaskSetsPerPoint: *tasksets,
		Seed:             *seed,
		Workers:          *workers,
		Base:             taskgen.DefaultConfig(),
		Observer:         sess.Observer(),
		Context:          ctx,
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return 1, err
		}
	}

	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	ran := false
	interrupted := false
	// Sharding and checkpointing only make sense for the sweep
	// studies; under -exp all the three non-sweep ones are skipped
	// with a note, and asking for one explicitly is an error.
	restricted := shard.Sharded() || *ckptDir != ""
	skipUnshardable := func(name string) (skip bool, err error) {
		if !restricted {
			return false, nil
		}
		if *exp == "all" {
			fmt.Fprintf(stderr, "experiments: skipping %s: -shard/-checkpoint only apply to the sweep studies (fig2*, fig3*, ext{crpd,partition,opa,gen})\n", name)
			return true, nil
		}
		return false, fmt.Errorf("%s is not a sweep and does not support -shard/-checkpoint", name)
	}

	if want("table1") {
		if skip, err := skipUnshardable("table1"); err != nil {
			return 1, err
		} else if !skip {
			ran = true
			rows, err := experiments.Table1(taskmodel.CacheConfig{NumSets: 256, BlockSizeBytes: 32})
			if err != nil {
				return 1, err
			}
			fmt.Fprintln(stdout, "Table I — benchmark parameters (regenerated by internal/staticwcet at 256 sets x 32 B)")
			fmt.Fprintln(stdout)
			if err := experiments.RenderTable1(stdout, rows); err != nil {
				return 1, err
			}
			fmt.Fprintln(stdout)
		}
	}

	for _, s := range studies {
		if !want(s.name) {
			continue
		}
		if interrupted {
			// A previous study was cut short; skip the rest outright.
			break
		}
		ran = true
		start := time.Now()
		runOpts := opts
		runOpts.Shard = shard
		if fleet != nil {
			runOpts.Analyze = fleet.AnalyzeBatch
		}

		var log *checkpoint.Log
		if *ckptDir != "" {
			hdr := checkpoint.Header{Study: s.name, Seed: *seed, TaskSets: *tasksets, Shard: shard}
			path := checkpointPath(*ckptDir, s.name, shard)
			var err error
			if *resume {
				log, err = checkpoint.Resume(path, hdr)
			} else {
				log, err = checkpoint.Create(path, hdr)
			}
			if err != nil {
				return 1, err
			}
			log.Every, log.Interval = *ckptEvery, *ckptInterval
			if n := log.Len(); n > 0 {
				fmt.Fprintf(stderr, "experiments: %s: resuming past %d checkpointed jobs\n", s.name, n)
			}
			runOpts.Checkpoint = log
		}
		runOpts.OnJobFailure = func(key string, err error, stack []byte) {
			fmt.Fprintf(stderr, "\nexperiments: %s: job %s failed permanently: %v\n", s.name, key, err)
			if *verbose && len(stack) > 0 {
				stderr.Write(stack)
			}
		}

		var p *progressPrinter
		if *progress {
			p = &progressPrinter{w: stderr, study: s.name}
			runOpts.Progress = p.update
		}
		st, err := s.run(runOpts)
		if p != nil {
			p.clear()
		}
		if cerr := log.Close(); cerr != nil {
			return 1, cerr
		}
		code, rerr := emitStudy(st, err, s.name, *outdir, start, stdout)
		if rerr != nil {
			return code, rerr
		}
		interrupted = interrupted || code == 130
	}

	if want("extassoc") && !interrupted {
		if skip, err := skipUnshardable("extassoc"); err != nil {
			return 1, err
		} else if !skip {
			ran = true
			pts, err := experiments.ExtAssociativity()
			if err != nil {
				return 1, err
			}
			fmt.Fprintln(stdout, "Extension — suite-wide demand and persistence vs cache organisation (256 lines)")
			fmt.Fprintln(stdout)
			if err := experiments.RenderAssoc(stdout, pts); err != nil {
				return 1, err
			}
			fmt.Fprintln(stdout)
		}
	}

	if want("exthier") && !interrupted {
		if skip, err := skipUnshardable("exthier"); err != nil {
			return 1, err
		} else if !skip {
			ran = true
			pts, err := experiments.ExtHierarchy()
			if err != nil {
				return 1, err
			}
			fmt.Fprintln(stdout, "Extension — bus demand absorbed by a private L2 (L1 fixed at 256x1)")
			fmt.Fprintln(stdout)
			if err := experiments.RenderHierarchy(stdout, pts); err != nil {
				return 1, err
			}
			fmt.Fprintln(stdout)
		}
	}

	if !ran {
		return 1, fmt.Errorf("unknown experiment %q", *exp)
	}
	if interrupted {
		fmt.Fprintln(stdout, "interrupted: results above are partial (remaining studies skipped)")
		return 130, nil
	}
	return 0, nil
}

// checkpointPath names the checkpoint file for one study and shard:
// DIR/<study>.json, or DIR/<study>.shardIofN.json when sharded, so
// the shards of one study never collide in a shared directory.
func checkpointPath(dir, study string, shard checkpoint.Shard) string {
	name := study + ".json"
	if shard.Sharded() {
		name = fmt.Sprintf("%s.shard%dof%d.json", study, shard.Index, shard.Count)
	}
	return filepath.Join(dir, name)
}

// runMerge implements the merge mode: it loads the given checkpoint
// files, groups them by study, verifies that each group is a complete
// disjoint shard partition, and replays each study entirely from the
// recorded jobs. Because replay walks the same canonical job order and
// fold as a live sweep, the emitted charts and CSVs are byte-identical
// to a single-process run's.
func runMerge(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("experiments merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outdir := fs.String("outdir", "", "directory for CSV output (optional)")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if fs.NArg() == 0 {
		return 1, fmt.Errorf("merge: no checkpoint files given (usage: experiments merge [-outdir DIR] ckpt/*.json)")
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return 1, err
		}
	}

	byStudy := make(map[string][]*checkpoint.Log)
	var order []string
	for _, path := range fs.Args() {
		log, err := checkpoint.Open(path)
		if err != nil {
			return 1, err
		}
		study := log.Header().Study
		if _, ok := studyByName(study); !ok {
			return 1, fmt.Errorf("merge: %s records unknown study %q", path, study)
		}
		if len(byStudy[study]) == 0 {
			order = append(order, study)
		}
		byStudy[study] = append(byStudy[study], log)
	}

	for _, name := range order {
		merged, err := checkpoint.Merge(byStudy[name])
		if err != nil {
			return 1, err
		}
		s, _ := studyByName(name)
		hdr := merged.Header()
		start := time.Now()
		st, err := s.run(experiments.Options{
			TaskSetsPerPoint: hdr.TaskSets,
			Seed:             hdr.Seed,
			Base:             taskgen.DefaultConfig(),
			Checkpoint:       merged,
			Context:          ctx,
		})
		if code, rerr := emitStudy(st, err, name, *outdir, start, stdout); rerr != nil || code != 0 {
			return code, rerr
		}
	}
	return 0, nil
}

// emitStudy renders one study and flushes its CSV. Interrupted studies
// are still emitted — flagged as partial — and reported as code 130.
func emitStudy(st *experiments.Study, err error, name, outdir string, start time.Time, stdout io.Writer) (int, error) {
	interrupted := errors.Is(err, experiments.ErrInterrupted)
	if err != nil && !interrupted {
		return 1, fmt.Errorf("%s: %w", name, err)
	}
	note := ""
	if interrupted {
		note = " — INTERRUPTED, partial data"
	}
	fmt.Fprintf(stdout, "(%s: %d task sets per point, %.1fs%s)\n", st.ID, st.TaskSetsPerPoint, time.Since(start).Seconds(), note)
	if err := st.Chart().Render(stdout); err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout)
	if outdir != "" {
		path := filepath.Join(outdir, name+".csv")
		if interrupted {
			path = filepath.Join(outdir, name+".partial.csv")
		}
		f, err := os.Create(path)
		if err != nil {
			return 1, err
		}
		if err := st.WriteCSV(f); err != nil {
			f.Close()
			return 1, err
		}
		if err := f.Close(); err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "wrote %s\n\n", path)
	}
	if interrupted {
		return 130, nil
	}
	return 0, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
