// Package benchsuite provides the workload programs for the
// experimental evaluation: a suite of sixteen synthetic structured
// programs whose static cache behaviour spans the same qualitative
// regimes as the Mälardalen benchmarks the paper analysed with Heptane
// (Table I) — from tiny loop kernels that are fully cache-persistent to
// state-machine code that overflows the cache and has no persistence at
// all.
//
// The suite is geometry-independent: programs are defined once in terms
// of memory blocks, and Extract/ExtractAll run the static analysis of
// package staticwcet against any cache configuration, which is exactly
// how the paper's cache-size experiment (Fig. 3c) re-derives task
// parameters per geometry. The verbatim values of the paper's Table I
// are embedded separately (PaperTable1) for reference and tests.
package benchsuite

import (
	"fmt"

	"repro/internal/program"
	"repro/internal/staticwcet"
	"repro/internal/taskmodel"
)

// Benchmark is one named workload program.
type Benchmark struct {
	Name string
	Prog *program.Program
}

// Params are the per-task parameters extracted from one benchmark at
// one cache geometry — one row of the regenerated Table I.
type Params struct {
	Name   string
	Result *staticwcet.Result
}

// programs is the suite, in order: each benchmark's name and the
// constructor of its program.
var programs = []struct {
	name  string
	build func() *program.Program
}{
	{"lcdnum", lcdnum},
	{"cnt", cnt},
	{"fir", fir},
	{"ns", ns},
	{"qurt", qurt},
	{"crc", crc},
	{"matmult", matmult},
	{"bsort100", bsort100},
	{"edn", edn},
	{"jfdctint", jfdctint},
	{"ludcmp", ludcmp},
	{"fdct", fdct},
	{"compress", compress},
	{"adpcm", adpcm},
	{"cover", cover},
	{"ndes", ndes},
	{"lms", lms},
	{"st", st},
	{"statemate", statemate},
	{"nsichneu", nsichneu},
}

// Suite returns the twenty benchmark programs. Programs are built
// fresh on every call so callers may mutate Alt.Taken freely.
func Suite() []Benchmark {
	out := make([]Benchmark, len(programs))
	for i, p := range programs {
		out[i] = Benchmark{p.name, p.build()}
	}
	return out
}

// ByName builds the named benchmark, or returns an error naming the
// unknown name.
func ByName(name string) (Benchmark, error) {
	for _, p := range programs {
		if p.name == name {
			return Benchmark{p.name, p.build()}, nil
		}
	}
	return Benchmark{}, fmt.Errorf("benchsuite: unknown benchmark %q", name)
}

// Extract analyses one benchmark against the cache geometry.
func Extract(b Benchmark, cache taskmodel.CacheConfig) (Params, error) {
	r, err := staticwcet.Analyze(b.Prog, cache)
	if err != nil {
		return Params{}, fmt.Errorf("benchsuite: analysing %s: %w", b.Name, err)
	}
	return Params{Name: b.Name, Result: r}, nil
}

// ExtractAll analyses the whole suite against the cache geometry.
func ExtractAll(cache taskmodel.CacheConfig) ([]Params, error) {
	suite := Suite()
	out := make([]Params, 0, len(suite))
	for _, b := range suite {
		p, err := Extract(b, cache)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// --- program definitions ----------------------------------------------------
//
// Conventions: each benchmark owns a disjoint base address region;
// conflicts within a program are created deliberately by referencing a
// second code range exactly 256 blocks away (the default number of
// cache sets), modelling library code mapped far from the main text
// segment. At larger caches those conflicts disappear (more PCBs); at
// smaller caches additional conflicts appear — the behaviour Fig. 3c
// relies on.

const farOffset = 256

// lcdnum: tiny display driver — short init then a small loop; fully
// persistent at the default geometry.
func lcdnum() *program.Program {
	return &program.Program{Name: "lcdnum", Root: program.S(
		program.Straight(0, 4, 6),
		program.L(12, program.Straight(4, 16, 2)),
	)}
}

// cnt: counts elements in a matrix — two nested loops over a small
// kernel.
func cnt() *program.Program {
	return &program.Program{Name: "cnt", Root: program.S(
		program.Straight(600, 4, 4),
		program.L(10, program.L(10, program.Straight(604, 10, 2))),
	)}
}

// fir: finite impulse response filter — long single loop, small body.
func fir() *program.Program {
	return &program.Program{Name: "fir", Root: program.S(
		program.Straight(640, 2, 4),
		program.L(700, program.Straight(642, 10, 2)),
	)}
}

// ns: four-level nested loop search over a table.
func ns() *program.Program {
	return &program.Program{Name: "ns", Root: program.S(
		program.Straight(680, 2, 3),
		program.L(5, program.L(5, program.L(5, program.L(5,
			program.Straight(682, 14, 1))))),
	)}
}

// qurt: quadratic root computation — straight-line math helpers called
// from a short loop, with an alternative for the discriminant sign.
func qurt() *program.Program {
	return &program.Program{Name: "qurt", Root: program.S(
		program.Straight(720, 6, 4),
		program.L(3, program.S(
			program.Straight(726, 12, 2),
			&program.Alt{
				A: program.Straight(738, 6, 3),
				B: program.Straight(744, 4, 2),
			},
		)),
	)}
}

// crc: table-driven cyclic redundancy check. The lookup table lives a
// far page away and aliases the first ten code blocks at the default
// geometry.
func crc() *program.Program {
	base := 768
	return &program.Program{Name: "crc", Root: program.S(
		program.Straight(base, 8, 3),
		program.L(40, program.S(
			program.Straight(base+8, 12, 2),
			program.Straight(base+farOffset, 10, 2), // aliases base..base+9
		)),
	)}
}

// matmult: triple nested loop over a compact kernel; large PD, fully
// persistent footprint.
func matmult() *program.Program {
	return &program.Program{Name: "matmult", Root: program.S(
		program.Straight(1100, 4, 4),
		program.L(20, program.L(20, program.L(20, program.Straight(1104, 12, 2)))),
	)}
}

// bsort100: bubble sort of 100 elements — the classic quadratic loop
// nest with a compare/swap alternative; modest footprint, huge PD.
func bsort100() *program.Program {
	return &program.Program{Name: "bsort100", Root: program.S(
		program.Straight(1150, 4, 3),
		program.L(99, program.L(99, program.S(
			program.Straight(1154, 8, 6),
			&program.Alt{
				A: program.Straight(1162, 6, 4), // swap path
				B: program.Straight(1168, 2, 2), // no-swap path
			},
			// Array-access helpers far away, aliasing the loop header:
			// they thrash every iteration, so persistence reclaims
			// almost nothing (the paper: MD^r/MD = 0.99) and execution
			// dominates (the paper: PD ≈ 8×MD).
			program.Straight(1154+farOffset, 8, 4),
		))),
	)}
}

// edn: vector/DSP kernels executed in sequence, each its own loop.
func edn() *program.Program {
	items := []program.Node{program.Straight(1200, 6, 3)}
	base := 1206
	for k := 0; k < 8; k++ {
		items = append(items, program.L(25, program.Straight(base+k*8, 8, 2)))
	}
	return &program.Program{Name: "edn", Root: program.S(items...)}
}

// jfdctint: integer DCT — two passes over row/column code.
func jfdctint() *program.Program {
	return &program.Program{Name: "jfdctint", Root: program.S(
		program.Straight(1300, 8, 3),
		program.L(8, program.Straight(1308, 26, 2)),
		program.L(8, program.Straight(1334, 26, 2)),
	)}
}

// ludcmp: LU decomposition — sizeable kernel, fully persistent at the
// default geometry (the paper reports ECB=PCB=98).
func ludcmp() *program.Program {
	return &program.Program{Name: "ludcmp", Root: program.S(
		program.Straight(1400, 10, 4),
		program.L(6, program.S(
			program.L(6, program.Straight(1410, 40, 2)),
			program.L(6, program.Straight(1450, 48, 2)),
		)),
	)}
}

// fdct: fast DCT — a persistent row/column kernel swept eight times,
// with a constant-table region far away that aliases the prologue.
// Only the aliased blocks stay in MD^r, giving the paper's fdct regime
// (MD^r well below MD).
func fdct() *program.Program {
	base := 1500
	return &program.Program{Name: "fdct", Root: program.S(
		program.Straight(base, 22, 3),
		program.L(8, program.Straight(base+22, 42, 2)),
		program.Straight(base+farOffset, 22, 1), // aliases base..base+21
	)}
}

// compress: two phases with a shared dictionary region; the second
// phase aliases half of the first.
func compress() *program.Program {
	base := 1800
	return &program.Program{Name: "compress", Root: program.S(
		program.Straight(base, 10, 2),
		program.L(30, program.S(
			program.Straight(base+10, 30, 2),
			&program.Alt{
				A: program.Straight(base+40, 10, 2),
				B: program.Straight(base+10+farOffset, 20, 1), // aliases phase 1
			},
		)),
	)}
}

// adpcm: audio codec — long straight-line encoder plus a decode loop
// aliasing part of the encoder text.
func adpcm() *program.Program {
	base := 2100
	return &program.Program{Name: "adpcm", Root: program.S(
		program.Straight(base, 100, 2),
		program.L(20, program.S(
			program.Straight(base+100, 40, 2),
			program.Straight(base+farOffset, 40, 1), // aliases base..base+39
		)),
	)}
}

// statemate: generated state-machine code — a large, almost
// straight-line body executed per step, plus a once-per-job helper
// region aliasing a slice of it; memory-dominated and mostly
// persistent (the paper reports MD^r/MD ≈ 0.21).
func statemate() *program.Program {
	base := 2600
	return &program.Program{Name: "statemate", Root: program.S(
		program.Straight(base, 8, 2),
		program.L(10, program.Straight(base+8, 220, 1)),
		program.Straight(base+8+farOffset, 36, 1), // aliases 36 of the 220
	)}
}

// cover: switch-heavy generated code — a big persistent body swept a
// few times; memory-dominated with full persistence at the default
// geometry.
func cover() *program.Program {
	return &program.Program{Name: "cover", Root: program.S(
		program.Straight(4000, 6, 2),
		program.L(3, program.Straight(4006, 200, 1)),
	)}
}

// ndes: bit-mangling cipher kernel — large table-driven persistent
// footprint executed in a short loop.
func ndes() *program.Program {
	return &program.Program{Name: "ndes", Root: program.S(
		program.Straight(4300, 8, 2),
		program.L(4, program.S(
			program.Straight(4308, 120, 1),
			program.Straight(4428, 100, 1),
		)),
	)}
}

// lms: adaptive filter — a long loop over a small kernel plus a large
// persistent coefficient-handling region.
func lms() *program.Program {
	return &program.Program{Name: "lms", Root: program.S(
		program.Straight(4700, 140, 1),
		program.L(60, program.Straight(4840, 16, 2)),
	)}
}

// st: statistics kernel — two persistent passes over a mid-size body.
func st() *program.Program {
	return &program.Program{Name: "st", Root: program.S(
		program.L(6, program.Straight(5000, 90, 1)),
		program.L(6, program.Straight(5090, 70, 1)),
	)}
}

// nsichneu: enormous Petri-net automaton — twice the cache in
// straight-line code per iteration: every block conflicts, no
// persistence at all at the default geometry.
func nsichneu() *program.Program {
	base := 3200
	return &program.Program{Name: "nsichneu", Root: program.S(
		program.L(6, program.S(
			program.Straight(base, 256, 2),
			program.Straight(base+farOffset, 256, 2),
		)),
	)}
}

// --- published reference values ---------------------------------------------

// Table1Row mirrors one row of the paper's Table I (values as printed;
// PD, MD, MD^r in the paper's clock-cycle units, set sizes in blocks).
type Table1Row struct {
	Name          string
	PD, MD, MDr   int64
	ECB, PCB, UCB int
}

// PaperTable1 returns the six rows printed in the paper. The full
// table is in reference [4]; only these six are published in this
// paper, and they serve as the qualitative calibration targets for the
// synthetic suite.
func PaperTable1() []Table1Row {
	return []Table1Row{
		{"lcdnum", 984, 1440, 192, 20, 20, 20},
		{"bsort100", 710289, 89893, 88907, 20, 20, 18},
		{"ludcmp", 27036, 8607, 3545, 98, 98, 98},
		{"fdct", 6550, 6017, 819, 106, 22, 58},
		{"nsichneu", 22009, 147200, 147200, 256, 0, 256},
		{"statemate", 10586, 18257, 3891, 256, 36, 256},
	}
}
