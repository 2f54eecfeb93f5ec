// Command report renders a complete Markdown analysis report for a
// task set: verdicts of every analysis variant, per-task WCRT bounds,
// a decomposition of the most stressed task's bound, sensitivity
// margins and cache-pressure statistics.
//
// Usage:
//
//	gentaskset -util 0.3 -o set.json
//	report -in set.json -sensitivity > report.md
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/taskmodel"
)

func run() error {
	in := flag.String("in", "", "task set JSON file (required; - for stdin)")
	sensitivity := flag.Bool("sensitivity", false, "include the (slower) sensitivity section")
	noExplain := flag.Bool("no-explain", false, "skip the bound decomposition section")
	arbS := flag.String("arbiter", "rr", "reference arbiter for the detail sections: fp, rr, tdma, perfect, regulated or paraware")
	noPersistence := flag.Bool("no-persistence", false, "use the persistence-oblivious analysis as reference")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("missing -in")
	}

	f := os.Stdin
	if *in != "-" {
		var err error
		f, err = os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	ts, err := taskmodel.ReadJSON(f)
	if err != nil {
		return err
	}

	arb, err := core.ParseArbiter(*arbS)
	if err != nil {
		return err
	}

	return report.Write(os.Stdout, ts, report.Options{
		Sensitivity:  *sensitivity,
		ExplainWorst: !*noExplain,
		Reference:    core.Config{Arbiter: arb, Persistence: !*noPersistence},
	})
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}
