package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
	"repro/internal/textplot"
)

// Fig2 reproduces Fig. 2a (FP), 2b (RR) or 2c (TDMA): the ratio of
// schedulable task sets as the per-core utilization grows, comparing
// the persistence-oblivious analysis, its persistence-aware
// counterpart, and the perfect-bus upper bound.
func Fig2(arb core.Arbiter, opts Options) (*Study, error) {
	id := map[core.Arbiter]string{
		core.FP: "Fig2a", core.RR: "Fig2b", core.TDMA: "Fig2c",
		core.Regulated: "Fig2reg", core.ParAware: "Fig2par",
	}[arb]
	if id == "" {
		return nil, fmt.Errorf("experiments: Fig2 undefined for arbiter %v", arb)
	}
	opts = opts.withDefaults()
	return ratioStudy(opts, id, fmt.Sprintf("schedulable task sets vs core utilization (%s bus)", arb),
		[]group{{cfg: opts.Base}},
		[]Variant{
			{arb.String(), core.Config{Arbiter: arb}},
			{arb.String() + "-CP", core.Config{Arbiter: arb, Persistence: true}},
			{"Perfect", core.Config{Arbiter: core.Perfect, Persistence: true}},
		}, true)
}

// group is one block of a ratio study's sweep points: the whole
// utilization grid, generated from cfg and passed through prepare
// (see sweep; nil analyzes the sets as generated).
type group struct {
	label   string
	cfg     taskgen.Config
	prepare func(*taskmodel.TaskSet) (*taskmodel.TaskSet, error)
}

// ratioStudy runs a schedulable-ratio study: it sweeps every group
// over opts.Utilizations — one sweep point per (group, utilization),
// group-major — and folds each variant's verdicts into the ratio of
// schedulable sets per point. Series are group-major as well, named
// "label/variant", or only the label when there is a single variant,
// or only the variant when the group is unlabelled. With intervals
// the 95% Wilson bounds of every ratio are attached. Every group
// draws from opts.Base's benchmark pool, so group configs may change
// anything but the cache geometry.
func ratioStudy(opts Options, id, title string, groups []group, variants []Variant, intervals bool) (*Study, error) {
	pool, err := taskgen.PoolFromSuiteObs(opts.Base.Platform.Cache, opts.Observer)
	if err != nil {
		return nil, err
	}
	nu := len(opts.Utilizations)
	perPoint, sweepErr := sweep(opts, len(groups)*nu,
		func(p int) (taskgen.Config, []taskgen.TaskParams, error) { return groups[p/nu].cfg, pool, nil },
		func(p int) []float64 { return opts.Utilizations[p%nu : p%nu+1] },
		variants,
		func(p int, ts *taskmodel.TaskSet) (*taskmodel.TaskSet, error) {
			if prepare := groups[p/nu].prepare; prepare != nil {
				return prepare(ts)
			}
			return ts, nil
		},
	)
	if sweepErr != nil && !errors.Is(sweepErr, ErrInterrupted) {
		return nil, sweepErr
	}

	st := &Study{
		ID:               id,
		Title:            title,
		XLabel:           "per-core utilization",
		YLabel:           "schedulable ratio",
		Xs:               opts.Utilizations,
		TaskSetsPerPoint: opts.TaskSetsPerPoint,
	}
	if intervals {
		st.Intervals = map[string][2][]float64{}
	}
	for gi, g := range groups {
		for _, v := range variants {
			name := v.Name
			if g.label != "" {
				name = g.label
				if len(variants) > 1 {
					name += "/" + v.Name
				}
			}
			vals := make([]float64, nu)
			lo := make([]float64, nu)
			hi := make([]float64, nu)
			for ui, samples := range perPoint[gi*nu : (gi+1)*nu] {
				sched := 0
				for _, s := range samples {
					if s.verdict[v.Name] {
						sched++
					}
				}
				if n := len(samples); n > 0 {
					vals[ui] = float64(sched) / float64(n)
					lo[ui], hi[ui] = stats.WilsonInterval(sched, n, 1.96)
				}
			}
			st.Series = append(st.Series, textplot.Series{Name: name, Values: vals})
			if intervals {
				st.Intervals[name] = [2][]float64{lo, hi}
			}
		}
	}
	return st, sweepErr
}

// weightedStudy runs a Fig. 3 style experiment: for every value of the
// swept parameter, task sets are generated across the whole
// utilization grid and reduced to the weighted schedulability measure.
func weightedStudy(opts Options, id, title, xlabel string, xs []float64,
	configAt func(point int) (taskgen.Config, []taskgen.TaskParams, error),
) (*Study, error) {
	opts = opts.withDefaults()
	variants := PaperVariants()
	perPoint, sweepErr := sweep(opts, len(xs), configAt,
		func(int) []float64 { return opts.Utilizations },
		variants, nil,
	)
	if sweepErr != nil && !errors.Is(sweepErr, ErrInterrupted) {
		return nil, sweepErr
	}
	return &Study{
		ID:               id,
		Title:            title,
		XLabel:           xlabel,
		YLabel:           "weighted schedulability",
		Xs:               xs,
		Series:           weightedSeries(perPoint, variants),
		TaskSetsPerPoint: opts.TaskSetsPerPoint,
	}, sweepErr
}

// Fig3a sweeps the number of cores (2..10 step 2 in the paper).
func Fig3a(opts Options) (*Study, error) {
	opts = opts.withDefaults()
	cores := []float64{2, 4, 6, 8, 10}
	pool, err := taskgen.PoolFromSuiteObs(opts.Base.Platform.Cache, opts.Observer)
	if err != nil {
		return nil, err
	}
	return weightedStudy(opts, "Fig3a", "weighted schedulability vs number of cores", "cores", cores,
		func(p int) (taskgen.Config, []taskgen.TaskParams, error) {
			cfg := opts.Base
			cfg.Platform.NumCores = int(cores[p])
			return cfg, pool, nil
		})
}

// Fig3b sweeps the memory reload time d_mem (2..10 step 2).
func Fig3b(opts Options) (*Study, error) {
	opts = opts.withDefaults()
	dmems := []float64{2, 4, 6, 8, 10}
	pool, err := taskgen.PoolFromSuiteObs(opts.Base.Platform.Cache, opts.Observer)
	if err != nil {
		return nil, err
	}
	return weightedStudy(opts, "Fig3b", "weighted schedulability vs memory reload time", "d_mem", dmems,
		func(p int) (taskgen.Config, []taskgen.TaskParams, error) {
			cfg := opts.Base
			cfg.Platform.DMem = int64(dmems[p])
			return cfg, pool, nil
		})
}

// Fig3c sweeps the cache size (32..1024 sets); task parameters are
// re-derived by the static analysis at every geometry, exactly as
// re-running Heptane would.
func Fig3c(opts Options) (*Study, error) {
	opts = opts.withDefaults()
	sizes := []float64{32, 64, 128, 256, 512, 1024}
	return weightedStudy(opts, "Fig3c", "weighted schedulability vs cache size", "cache sets", sizes,
		func(p int) (taskgen.Config, []taskgen.TaskParams, error) {
			cfg := opts.Base
			cfg.Platform.Cache.NumSets = int(sizes[p])
			pool, err := taskgen.PoolFromSuiteObs(cfg.Platform.Cache, opts.Observer)
			return cfg, pool, err
		})
}

// Fig3d sweeps the RR/TDMA slot size s (1..6).
func Fig3d(opts Options) (*Study, error) {
	opts = opts.withDefaults()
	slots := []float64{1, 2, 3, 4, 5, 6}
	pool, err := taskgen.PoolFromSuiteObs(opts.Base.Platform.Cache, opts.Observer)
	if err != nil {
		return nil, err
	}
	return weightedStudy(opts, "Fig3d", "weighted schedulability vs RR/TDMA slot size", "slot size s", slots,
		func(p int) (taskgen.Config, []taskgen.TaskParams, error) {
			cfg := opts.Base
			cfg.Platform.SlotSize = int(slots[p])
			return cfg, pool, nil
		})
}
