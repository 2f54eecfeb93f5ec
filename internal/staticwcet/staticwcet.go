// Package staticwcet derives the per-task parameters consumed by the
// bus contention analysis — PD, MD, MD^r and the cache footprint sets
// ECB, UCB and PCB — from a structured program (package program) and a
// direct-mapped cache geometry.
//
// It plays the role of the Heptane static WCET analyzer in the paper's
// tool chain. The analysis is a classical abstract-interpretation
// must-cache analysis for LRU set-associative caches (Ferdinand &
// Wilhelm), of which the paper's direct-mapped model is the
// associativity-1 special case:
//
//   - A must-analysis computes, for every reference occurrence, the set
//     of memory blocks guaranteed to be cached on every execution of
//     that reference; references to guaranteed blocks are Always-Hit.
//   - References that are not always-hit but whose block is persistent
//     in some enclosing loop (no conflicting block referenced anywhere
//     in the loop) are First-Miss with respect to the outermost such
//     loop: they miss at most once per loop entry.
//   - All remaining references are Always-Miss.
//
// Two miss accountings are produced. MD/MDr follow the paper's tool
// chain (Heptane as used by Rashid et al. [3]): only must-analysis
// Always-Hit references are credited, so a loop-persistent block is
// charged on every iteration — this is the baseline pessimism the
// persistence-aware analysis reclaims, and the reason the paper's
// Table I has MD − MD^r far larger than |PCB|. MDExact/MDrExact
// additionally credit First-Miss references (at most one miss per
// entry of the qualifying loop); they are this repository's tighter
// bound, used to cross-validate the analysis against the cycle-level
// simulator.
//
// PCBs (persistent cache blocks, Rashid et al.) fall out exactly for
// LRU: a block the task can never evict itself is precisely a block
// whose cache set holds at most Ways() distinct footprint blocks. MD^r
// is obtained by re-running the miss counting with all PCBs preloaded
// into the initial must state. Note that the set-based PCB
// representation of the bus contention analysis is exact only for the
// direct-mapped case the paper covers (one persistent block per set);
// higher associativities are provided for the cache-level extension
// studies.
package staticwcet

import (
	"fmt"

	"repro/internal/cacheset"
	"repro/internal/program"
	"repro/internal/taskmodel"
)

// Classification of one reference occurrence.
type Classification int

const (
	// AlwaysHit references are guaranteed cached on every execution.
	AlwaysHit Classification = iota
	// FirstMiss references miss at most once per entry of their
	// qualifying loop.
	FirstMiss
	// AlwaysMiss references must be assumed to miss on every execution.
	AlwaysMiss
)

func (c Classification) String() string {
	switch c {
	case AlwaysHit:
		return "AH"
	case FirstMiss:
		return "FM"
	case AlwaysMiss:
		return "AM"
	default:
		return fmt.Sprintf("Classification(%d)", int(c))
	}
}

// RefReport describes the analysis outcome for one reference
// occurrence, in traversal order.
type RefReport struct {
	Block     int
	Set       int
	ExecCount int64
	Class     Classification
	// Misses is the total number of misses charged to this occurrence
	// over a whole job execution (after per-loop block deduplication,
	// a FirstMiss occurrence may be charged zero if an earlier
	// occurrence of the same block already paid the loop's charge).
	Misses int64
}

// Result is the full analysis outcome for one program: exactly the
// parameters the paper's Table I lists per benchmark.
type Result struct {
	// PD is the worst-case pure execution demand (all accesses hit).
	PD taskmodel.Time
	// MD is the worst-case number of memory requests from a cold cache
	// in the paper's accounting: no first-miss credit, matching the
	// Heptane-derived Table I values the evaluation consumes.
	MD int64
	// MDr is the worst-case number of memory requests with all PCBs
	// preloaded, same accounting as MD.
	MDr int64
	// MDExact and MDrExact are the first-miss-aware counterparts: the
	// tightest per-job bounds this analysis can prove, used for
	// simulator cross-validation. MDExact <= MD and MDrExact <= MDr.
	MDExact, MDrExact int64
	// ECB, UCB, PCB are the cache-set footprints defined in the paper.
	ECB, UCB, PCB cacheset.Set
	// PCBBlocks lists the persistent memory blocks themselves.
	PCBBlocks []int
	// Refs reports the per-occurrence classification (cold-cache run).
	Refs []RefReport
}

// saturating product guard: execution counts beyond this are clamped,
// keeping arithmetic overflow-free for absurd loop nests.
const maxCount = int64(1) << 50

func satMul(a, b int64) int64 {
	if a > 0 && b > maxCount/a {
		return maxCount
	}
	return a * b
}

// Analyze runs the static cache/WCET analysis of prog against the
// given cache geometry.
func Analyze(prog *program.Program, cache taskmodel.CacheConfig) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if cache.NumSets < 1 {
		return nil, fmt.Errorf("staticwcet: cache NumSets = %d, need >= 1", cache.NumSets)
	}
	a := &analyzer{cache: cache}
	a.structure(prog.Root, nil, 1)
	a.indexFootprint()

	// Whole-program footprint and the exact PCB set for direct mapping.
	blocksPerSet := map[int]map[int]bool{}
	for _, ri := range a.refs {
		s := cache.SetOf(ri.block)
		if blocksPerSet[s] == nil {
			blocksPerSet[s] = map[int]bool{}
		}
		blocksPerSet[s][ri.block] = true
	}
	ecb := cacheset.New(cache.NumSets)
	pcb := cacheset.New(cache.NumSets)
	var pcbBlocks []int
	for s, blocks := range blocksPerSet {
		ecb.Add(s)
		if len(blocks) <= cache.Ways() {
			pcb.Add(s)
			for b := range blocks {
				pcbBlocks = append(pcbBlocks, b)
			}
		}
	}
	sortInts(pcbBlocks)

	// Cold-cache classification and miss counting, in both accountings.
	cold := a.newState()
	reports, mdExact := a.countMisses(prog.Root, cold, true)
	_, md := a.countMisses(prog.Root, cold, false)

	// Residual demand: same counting with PCBs preloaded.
	warm := a.newState()
	for _, b := range pcbBlocks {
		warm.install(a.slot(b), b)
	}
	_, mdrExact := a.countMisses(prog.Root, warm, true)
	_, mdr := a.countMisses(prog.Root, warm, false)

	// UCB: blocks with intra-job reuse — an always-hit occurrence, or a
	// first-miss occurrence that executes more often than it misses.
	ucb := cacheset.New(cache.NumSets)
	for _, r := range reports {
		switch r.Class {
		case AlwaysHit:
			ucb.Add(r.Set)
		case FirstMiss:
			if r.ExecCount > r.Misses {
				ucb.Add(r.Set)
			}
		}
	}

	return &Result{
		PD:        a.pd(prog.Root),
		MD:        md,
		MDr:       mdr,
		MDExact:   mdExact,
		MDrExact:  mdrExact,
		ECB:       ecb,
		UCB:       ucb,
		PCB:       pcb,
		PCBBlocks: pcbBlocks,
		Refs:      reports,
	}, nil
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// --- structure pass --------------------------------------------------------

type loopCtx struct {
	id      int
	bound   int
	entries int64        // how many times the loop is entered in total
	sets    map[int]int  // cache set -> number of distinct footprint blocks
	blocks  map[int]bool // footprint blocks (for distinctness)
}

type refCtx struct {
	block     int
	cycles    int64
	loops     []int // enclosing loop ids, outermost first
	execCount int64
}

type analyzer struct {
	cache taskmodel.CacheConfig
	loops []*loopCtx
	refs  []refCtx
	// local numbers the cache sets the footprint maps to, 1-based in
	// first-reference order (0: no footprint block maps there); nLocal
	// is how many there are. Must states index sets by local−1.
	local  []int32
	nLocal int
}

// indexFootprint numbers the footprint's cache sets densely, so must
// states hold one slot per set the program touches rather than one per
// set of the cache: loop fixpoints and Alt joins clone, join and
// compare whole states, and at 8192 sets a geometry-sized state made
// them cost far more than the program.
func (a *analyzer) indexFootprint() {
	a.local = make([]int32, a.cache.NumSets)
	for _, ri := range a.refs {
		if s := a.cache.SetOf(ri.block); a.local[s] == 0 {
			a.nLocal++
			a.local[s] = int32(a.nLocal)
		}
	}
}

// slot is the must-state index of the set block maps to; block must be
// in the footprint.
func (a *analyzer) slot(block int) int { return int(a.local[a.cache.SetOf(block)]) - 1 }

// structure collects reference occurrences, enclosing-loop stacks,
// execution counts and per-loop footprints. Both Alt branches are
// traversed (conservative footprints and counts).
func (a *analyzer) structure(n program.Node, stack []*loopCtx, mult int64) {
	switch v := n.(type) {
	case *program.Ref:
		loops := make([]int, len(stack))
		for i, l := range stack {
			loops[i] = l.id
			if !l.blocks[v.Block] {
				l.blocks[v.Block] = true
				l.sets[a.cache.SetOf(v.Block)]++
			}
		}
		a.refs = append(a.refs, refCtx{block: v.Block, cycles: v.Cycles, loops: loops, execCount: mult})
	case *program.Seq:
		for _, it := range v.Items {
			a.structure(it, stack, mult)
		}
	case *program.Loop:
		lc := &loopCtx{
			id:      len(a.loops),
			bound:   v.Bound,
			entries: mult,
			sets:    map[int]int{},
			blocks:  map[int]bool{},
		}
		a.loops = append(a.loops, lc)
		a.structure(v.Body, append(stack, lc), satMul(mult, int64(v.Bound)))
	case *program.Alt:
		a.structure(v.A, stack, mult)
		a.structure(v.B, stack, mult)
	default:
		panic(fmt.Sprintf("staticwcet: unknown node %T", n))
	}
}

// --- must analysis and miss counting ---------------------------------------

// ageEntry is one guaranteed-resident block of a set with an upper
// bound on its LRU age (0 = most recently used).
type ageEntry struct {
	block int
	age   int
}

// state is the LRU must-cache abstraction: per footprint set (by its
// analyzer.slot index), the blocks guaranteed resident on every
// execution reaching this point, each with an upper bound on its LRU
// age. A block is a guaranteed hit iff it is present. For
// associativity 1 this degenerates to "the one block known to occupy
// the set".
//
// A set never holds more than ways blocks: at most k+1 of them have an
// age bound ≤ k, which installs (ages 0, 1, …), accesses and joins all
// preserve. So each set owns a fixed run of ways entries in one flat
// slice, which clone copies whole.
type state struct {
	ways int
	// n[i] is how many of slot i's entries ents[i*ways:(i+1)*ways]
	// are held.
	n    []int
	ents []ageEntry
}

func (a *analyzer) newState() state {
	ways := a.cache.Ways()
	return state{ways: ways, n: make([]int, a.nLocal), ents: make([]ageEntry, a.nLocal*ways)}
}

// entries returns the held entries of slot, with room to append up to
// ways of them in place.
func (s state) entries(slot int) []ageEntry {
	base := slot * s.ways
	return s.ents[base : base+s.n[slot] : base+s.ways]
}

// install places a block in the must state without aging others; used
// only for building preloaded initial states. Ages are assigned in
// insertion order, which is valid because preloaded sets hold at most
// ways blocks.
func (s state) install(slot, block int) {
	entries := s.entries(slot)
	s.n[slot] = len(append(entries, ageEntry{block: block, age: len(entries)}))
}

// contains reports whether the block is guaranteed resident.
func (s state) contains(slot, block int) bool {
	for _, e := range s.entries(slot) {
		if e.block == block {
			return true
		}
	}
	return false
}

// access applies the LRU must-cache transfer for a reference to block
// in the given set: the block becomes age 0; on a guaranteed hit only
// younger blocks age, on a (potential) miss every block ages and those
// reaching the associativity bound lose their guarantee.
func (s state) access(slot, block int) {
	out := s.age(slot, block)
	out = append(out, ageEntry{block: block, age: 0})
	s.n[slot] = len(out)
}

// mayAccess is the transfer of a reference that may or may not
// happen: the join of the states with and without access(slot, block).
// The two differ only in slot's set, where the join keeps the block at
// its old age bound if it was present (dropping it otherwise) and the
// others aged as the access would age them.
func (s state) mayAccess(slot, block int) {
	entries := s.entries(slot)
	for _, e := range entries {
		if e.block == block {
			out := s.age(slot, block)
			s.n[slot] = len(append(out, e))
			return
		}
	}
	s.n[slot] = len(s.age(slot, block))
}

// age is the part of access(slot, block) that every other block of
// the set sees, done in place: it returns the set's other blocks, aged
// and without those that lost their guarantee, leaving room for one
// more entry.
func (s state) age(slot, block int) []ageEntry {
	entries := s.entries(slot)
	prevAge := s.ways // "older than everything" when not present
	for _, e := range entries {
		if e.block == block {
			prevAge = e.age
			break
		}
	}
	out := entries[:0]
	for _, e := range entries {
		if e.block == block {
			continue
		}
		if e.age < prevAge {
			e.age++
		}
		if e.age < s.ways {
			out = append(out, e)
		}
	}
	return out
}

func (s state) clone() state {
	return state{ways: s.ways, n: append([]int(nil), s.n...), ents: append([]ageEntry(nil), s.ents...)}
}

// meet is the must-analysis join, computed in place in s: only blocks
// guaranteed in both states survive, with the larger (worse) age
// bound.
func (s state) meet(t state) {
	for i := range s.n {
		entries, other := s.entries(i), t.entries(i)
		out := entries[:0]
		for _, e := range entries {
			for _, f := range other {
				if e.block == f.block {
					out = append(out, ageEntry{block: e.block, age: max(e.age, f.age)})
					break
				}
			}
		}
		s.n[i] = len(out)
	}
}

func (s state) equal(t state) bool {
	for i := range s.n {
		if s.n[i] != t.n[i] {
			return false
		}
		other := t.entries(i)
		for _, e := range s.entries(i) {
			found := false
			for _, f := range other {
				if e == f {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// countMisses runs the recording must-analysis from the given initial
// state and produces per-occurrence reports plus the total miss bound.
// With fmCredit, First-Miss references are charged once per entry of
// their qualifying loop (exact accounting); without it they are
// charged on every execution (the paper's accounting).
func (a *analyzer) countMisses(root program.Node, init state, fmCredit bool) ([]RefReport, int64) {
	m := &missCounter{
		a:        a,
		fmCredit: fmCredit,
		charged:  map[[2]int64]bool{},
	}
	m.walk(root, init.clone(), true)
	return m.reports, m.total
}

type missCounter struct {
	a        *analyzer
	fmCredit bool
	refIdx   int
	reports  []RefReport
	total    int64
	// charged dedupes FirstMiss charges per (block, qualifying loop):
	// several syntactic references to the same persistent block within
	// one loop still load it only once per entry.
	charged map[[2]int64]bool
}

// walk interprets the program abstractly, updating st (which it owns)
// and returning the out-state. When record is true, each reference
// occurrence appends a report; loop bodies run a fixpoint without
// recording first, then one recording pass with the converged entry
// state.
func (m *missCounter) walk(n program.Node, st state, record bool) state {
	switch v := n.(type) {
	case *program.Ref:
		setIdx := m.a.cache.SetOf(v.Block)
		slot := int(m.a.local[setIdx]) - 1
		if record {
			ri := m.a.refs[m.refIdx]
			rep := RefReport{Block: v.Block, Set: setIdx, ExecCount: ri.execCount}
			if st.contains(slot, v.Block) {
				rep.Class = AlwaysHit
			} else if lid, ok := m.qualifyingLoop(ri); ok {
				rep.Class = FirstMiss
				if m.fmCredit {
					key := [2]int64{int64(v.Block), int64(lid)}
					if !m.charged[key] {
						m.charged[key] = true
						rep.Misses = m.a.loops[lid].entries
					}
				} else {
					rep.Misses = ri.execCount
				}
			} else {
				rep.Class = AlwaysMiss
				rep.Misses = ri.execCount
			}
			m.total += rep.Misses
			m.reports = append(m.reports, rep)
			m.refIdx++
		}
		st.access(slot, v.Block)
		return st
	case *program.Seq:
		for _, it := range v.Items {
			st = m.walk(it, st, record)
		}
		return st
	case *program.Alt:
		// Record passes must visit both branches to keep refIdx in sync
		// with the structure pass; the out-state is the must-join.
		sa := m.walk(v.A, st.clone(), record)
		sb := m.walk(v.B, st, record)
		sa.meet(sb)
		return sa
	case *program.Loop:
		// Fixpoint on the loop entry state without recording: the next
		// entry state is the loop's in-state joined with the body's
		// out-state.
		entry := st.clone()
		for {
			next := m.walk(v.Body, entry.clone(), false)
			next.meet(st)
			if next.equal(entry) {
				break
			}
			entry = next
		}
		return m.walk(v.Body, entry, record)
	default:
		panic(fmt.Sprintf("staticwcet: unknown node %T", n))
	}
}

// qualifyingLoop returns the outermost enclosing loop in which the
// reference's block is persistent (no distinct footprint block shares
// its cache set), if any.
func (m *missCounter) qualifyingLoop(ri refCtx) (loopID int, ok bool) {
	setIdx := m.a.cache.SetOf(ri.block)
	for _, lid := range ri.loops { // outermost first
		if m.a.loops[lid].sets[setIdx] <= m.a.cache.Ways() {
			return lid, true
		}
	}
	return 0, false
}

// --- execution demand -------------------------------------------------------

// pd computes the worst-case pure execution demand: sums for
// sequences, multiplies loop bounds, takes the heavier branch of an
// alternative.
func (a *analyzer) pd(n program.Node) taskmodel.Time {
	switch v := n.(type) {
	case *program.Ref:
		return v.Cycles
	case *program.Seq:
		var s taskmodel.Time
		for _, it := range v.Items {
			s += a.pd(it)
		}
		return s
	case *program.Loop:
		return taskmodel.Time(satMul(int64(v.Bound), int64(a.pd(v.Body))))
	case *program.Alt:
		pa, pb := a.pd(v.A), a.pd(v.B)
		if pa >= pb {
			return pa
		}
		return pb
	default:
		panic(fmt.Sprintf("staticwcet: unknown node %T", n))
	}
}

// ToTask packages an analysis result as a taskmodel.Task with the given
// identity and timing parameters (period and deadline are set by the
// task-set generator).
func (r *Result) ToTask(name string, core, priority int, period, deadline taskmodel.Time) *taskmodel.Task {
	return &taskmodel.Task{
		Name: name, Core: core, Priority: priority,
		PD: r.PD, MD: r.MD, MDr: r.MDr,
		Period: period, Deadline: deadline,
		UCB: r.UCB, ECB: r.ECB, PCB: r.PCB,
	}
}
