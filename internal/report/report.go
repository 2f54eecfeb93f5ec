// Package report renders a complete Markdown analysis report for a
// task set: platform summary, verdicts of all six analyses plus the
// perfect-bus reference, per-task WCRT tables, a bound decomposition
// for the most-stressed task, and sensitivity margins. It is the
// "give me everything" front end over internal/core.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/taskmodel"
)

// Options selects what the report contains.
type Options struct {
	// Sensitivity adds the MaxDMem / CriticalScaling section (slower:
	// dozens of fixed-point runs).
	Sensitivity bool
	// ExplainWorst decomposes the WCRT of the task with the least
	// slack under the reference configuration.
	ExplainWorst bool
	// Reference is the configuration used for the detail sections;
	// zero value means RR with persistence.
	Reference core.Config
}

type variantRow struct {
	name string
	cfg  core.Config
}

// variants lists every analysis the verdict matrix runs. The regulated
// rows only appear when the platform carries regulation parameters —
// without them the regulated analysis rejects the configuration.
func variants(p taskmodel.Platform) []variantRow {
	rows := []variantRow{
		{"FP", core.Config{Arbiter: core.FP}},
		{"FP-CP", core.Config{Arbiter: core.FP, Persistence: true}},
		{"RR", core.Config{Arbiter: core.RR}},
		{"RR-CP", core.Config{Arbiter: core.RR, Persistence: true}},
		{"TDMA", core.Config{Arbiter: core.TDMA}},
		{"TDMA-CP", core.Config{Arbiter: core.TDMA, Persistence: true}},
	}
	if p.RegBudget >= 1 && p.RegPeriod >= 1 {
		rows = append(rows,
			variantRow{"Regulated", core.Config{Arbiter: core.Regulated}},
			variantRow{"Regulated-CP", core.Config{Arbiter: core.Regulated, Persistence: true}},
		)
	}
	rows = append(rows,
		variantRow{"ParAware", core.Config{Arbiter: core.ParAware}},
		variantRow{"ParAware-CP", core.Config{Arbiter: core.ParAware, Persistence: true}},
		variantRow{"Perfect", core.Config{Arbiter: core.Perfect, Persistence: true}},
	)
	return rows
}

// Write renders the report.
func Write(w io.Writer, ts *taskmodel.TaskSet, opts Options) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	ref := opts.Reference
	if ref == (core.Config{}) {
		ref = core.Config{Arbiter: core.RR, Persistence: true}
	}

	fmt.Fprintf(w, "# Bus contention analysis report\n\n")
	p := ts.Platform
	fmt.Fprintf(w, "Platform: %d cores, L1 %d sets × %d B", p.NumCores, p.Cache.NumSets, p.Cache.BlockSizeBytes)
	if p.Cache.Ways() > 1 {
		fmt.Fprintf(w, " (%d-way)", p.Cache.Ways())
	}
	if p.HasL2() {
		fmt.Fprintf(w, ", L2 %d sets × %d-way (d_l2=%d)", p.L2.NumSets, p.L2.Ways(), p.DL2)
	}
	fmt.Fprintf(w, ", d_mem=%d, RR/TDMA slot size %d.\n\n", p.DMem, p.SlotSize)
	fmt.Fprintf(w, "Tasks: %d; total utilization %.3f (per-core avg %.3f); bus utilization %.3f.\n\n",
		len(ts.Tasks), ts.TotalUtilization(), ts.TotalUtilization()/float64(p.NumCores), ts.BusUtilization())

	// Verdict matrix.
	fmt.Fprintf(w, "## Schedulability verdicts\n\n")
	fmt.Fprintf(w, "| analysis | schedulable | outer iterations |\n|---|---|---|\n")
	results := map[string]*core.Result{}
	for _, v := range variants(ts.Platform) {
		res, err := core.Analyze(ts, v.cfg, core.Options{})
		if err != nil {
			return err
		}
		results[v.name] = res
		fmt.Fprintf(w, "| %s | %v | %d |\n", v.name, res.Schedulable, res.OuterIterations)
	}
	fmt.Fprintln(w)

	// Per-task WCRT table under the reference configuration (and its
	// persistence-oblivious sibling for contrast).
	refName := ref.Arbiter.String()
	if ref.Persistence {
		refName += "-CP"
	}
	base := ref
	base.Persistence = false
	baseRes, err := core.Analyze(ts, base, core.Options{})
	if err != nil {
		return err
	}
	refRes, err := core.Analyze(ts, ref, core.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Per-task bounds (%s)\n\n", refName)
	if !refRes.Complete || !baseRes.Complete {
		fmt.Fprintf(w, "*(an analysis aborted at its first deadline miss; missing rows show `n/a`)*\n\n")
	}
	fmt.Fprintf(w, "| task | core | prio | T=D | WCRT %s | WCRT %s | slack %% |\n|---|---|---|---|---|---|---|\n",
		ref.Arbiter, refName)
	cell := func(res *core.Result, i int) string {
		tr := res.Tasks[i]
		if !tr.Verified {
			return "n/a" // aborted before judging this task
		}
		if !tr.Schedulable {
			return "miss"
		}
		return fmt.Sprint(tr.WCRT)
	}
	for i, tr := range refRes.Tasks {
		slack := "-"
		if refRes.Complete && tr.Schedulable && tr.Deadline > 0 {
			slack = fmt.Sprintf("%.1f", 100*float64(tr.Deadline-tr.WCRT)/float64(tr.Deadline))
		}
		fmt.Fprintf(w, "| %s | %d | %d | %d | %s | %s | %s |\n",
			tr.Name, tr.Core, tr.Priority, tr.Deadline, cell(baseRes, i), cell(refRes, i), slack)
	}
	fmt.Fprintln(w)

	if opts.ExplainWorst && refRes.Complete {
		// Least relative slack = most stressed.
		idx := -1
		worst := 2.0
		for i, tr := range refRes.Tasks {
			if !tr.Schedulable || tr.Deadline == 0 {
				continue
			}
			s := float64(tr.Deadline-tr.WCRT) / float64(tr.Deadline)
			if s < worst {
				worst = s
				idx = i
			}
		}
		if idx >= 0 {
			ex, err := core.Explain(ts, ref, refRes.Tasks[idx].Priority)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "## Bound decomposition — most stressed task\n\n```\n")
			if err := ex.Render(w); err != nil {
				return err
			}
			fmt.Fprintf(w, "```\n\n")
		}
	}

	if opts.Sensitivity {
		fmt.Fprintf(w, "## Sensitivity\n\n")
		fmt.Fprintf(w, "| analysis | max d_mem | critical scaling |\n|---|---|---|\n")
		for _, v := range variants(ts.Platform) {
			if v.cfg.Arbiter == core.Perfect {
				continue
			}
			maxD, err := core.MaxDMem(ts, v.cfg, 1<<16, core.Options{})
			if err != nil {
				return err
			}
			scale := "-"
			if k, err := core.CriticalScaling(ts, v.cfg, 1e-3, core.Options{}); err == nil {
				scale = fmt.Sprintf("%.3f", k)
			}
			fmt.Fprintf(w, "| %s | %d | %s |\n", v.name, maxD, scale)
		}
		fmt.Fprintln(w)
	}

	// Footprint pressure summary: which cache sets are most contested.
	fmt.Fprintf(w, "## Cache pressure\n\n")
	for c := 0; c < p.NumCores; c++ {
		tasks := ts.OnCore(c)
		names := make([]string, 0, len(tasks))
		overlap := 0
		for _, a := range tasks {
			names = append(names, a.Name)
			for _, b := range tasks {
				if a != b {
					overlap += a.PCB.IntersectCount(b.ECB)
				}
			}
		}
		sort.Strings(names)
		fmt.Fprintf(w, "- core %d: %d tasks (%s); PCB∩ECB collision score %d\n",
			c, len(tasks), strings.Join(names, ", "), overlap)
	}
	return nil
}
