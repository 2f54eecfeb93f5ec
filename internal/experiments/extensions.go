package experiments

import (
	"repro/internal/core"
	"repro/internal/crpd"
	"repro/internal/opa"
	"repro/internal/partition"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

// rrCP is the single analysis the placement and priority studies run.
var rrCP = []Variant{{"RR-CP", core.Config{Arbiter: core.RR, Persistence: true}}}

// ExtCRPD is the CRPD-approach ablation called out in DESIGN.md §5:
// the RR-CP analysis re-run with each preemption-delay bound, plotted
// as schedulable ratio over the utilization sweep. The paper fixes
// ECB-union; this study shows how much of the result depends on that
// choice.
func ExtCRPD(opts Options) (*Study, error) {
	opts = opts.withDefaults()
	var variants []Variant
	for _, ap := range []crpd.Approach{crpd.ECBUnion, crpd.UCBOnly, crpd.ECBOnly, crpd.UCBUnion, crpd.Combined} {
		variants = append(variants, Variant{ap.String(), core.Config{Arbiter: core.RR, Persistence: true, CRPD: ap}})
	}
	return ratioStudy(opts, "ExtCRPD", "RR-CP schedulability per CRPD approach",
		[]group{{cfg: opts.Base}}, variants, false)
}

// ExtPartition compares task-to-core placement heuristics under the
// RR-CP analysis: the paper's fixed per-core split versus
// utilization-driven first-fit/worst-fit and the cache-aware placement
// that avoids PCB/ECB collisions (which directly shrink CPRO and
// CRPD). A set a heuristic cannot place counts as unschedulable.
func ExtPartition(opts Options) (*Study, error) {
	opts = opts.withDefaults()
	groups := []group{{label: "paper-split", cfg: opts.Base}}
	for _, h := range []partition.Heuristic{partition.FirstFit, partition.WorstFit, partition.CacheAware} {
		groups = append(groups, group{label: h.String(), cfg: opts.Base,
			prepare: func(ts *taskmodel.TaskSet) (*taskmodel.TaskSet, error) {
				if partition.Assign(ts, h) != nil {
					return nil, nil
				}
				return ts, nil
			}})
	}
	return ratioStudy(opts, "ExtPartition", "RR-CP schedulability per partitioning heuristic",
		groups, rrCP, false)
}

// ExtOPA compares priority-assignment policies under the RR-CP
// analysis: the paper's deadline-monotonic assignment versus Audsley's
// OPA search (internal/opa). OPA can only help — it falls back to
// any assignment that works, including DM itself.
func ExtOPA(opts Options) (*Study, error) {
	opts = opts.withDefaults()
	cfg := rrCP[0].Config
	withOPA := func(ts *taskmodel.TaskSet) (*taskmodel.TaskSet, error) {
		res, err := core.Analyze(ts, cfg, core.Options{Observer: opts.Observer})
		if err != nil {
			return nil, err
		}
		if res.Schedulable {
			return ts, nil // DM success is an OPA witness
		}
		r, err := opa.Assign(ts, cfg)
		if err != nil || !r.Schedulable {
			return nil, err
		}
		return opa.ApplyTo(ts, r)
	}
	return ratioStudy(opts, "ExtOPA", "RR-CP schedulability: deadline monotonic vs Audsley OPA",
		[]group{{label: "DM", cfg: opts.Base}, {label: "OPA", cfg: opts.Base, prepare: withOPA}}, rrCP, false)
}

// ExtGen checks the evaluation's robustness to the task-generation
// methodology: the RR and RR-CP schedulability curves under the
// paper's demand-derived periods versus log-uniform periods with
// scaled demands (Davis & Burns style). The persistence-aware
// dominance must be visible under both.
func ExtGen(opts Options) (*Study, error) {
	opts = opts.withDefaults()
	paper, loguni := opts.Base, opts.Base
	paper.Periods = taskgen.PeriodFromDemand
	loguni.Periods = taskgen.PeriodLogUniform
	return ratioStudy(opts, "ExtGen", "generation-methodology robustness (RR vs RR-CP)",
		[]group{{label: "paper", cfg: paper}, {label: "loguni", cfg: loguni}},
		[]Variant{{"RR", core.Config{Arbiter: core.RR}}, rrCP[0]}, false)
}
