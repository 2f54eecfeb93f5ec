package core

import (
	"fmt"

	"repro/internal/cacheset"
	"repro/internal/crpd"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
)

// Precomputed interference tables.
//
// Every quantity cached here depends only on the task set and the CRPD
// approach — never on the response-time estimates R — so computing it
// once per analysis is sound: the fixed-point iteration reads exactly
// the same values it would have recomputed. The expensive terms are the
// cache-set operations behind γ_{i,j,x} (Eq. 2), the CPRO union
// overlaps |PCB_j ∩ ∪ ECB_s| (Eq. 14) and the per-evictor
// |PCB_j ∩ ECB_s| counts of the multiset bound; the naive analyzer
// rebuilt all of them for every task pair in every inner iteration.
//
// Everything is filled lazily — pair columns (the set-derived
// numbers) on first use of a level, pair entries on first use of a
// (level, task) pair. The per-level task lists need no build at all:
// hep(i)∩Γ_y and lp(i)∩Γ_y are the prefix and suffix of the
// priority-ascending byCore[y] at the level's cutoff. Laziness matters
// twice: the OPA search (internal/opa) probes one level per analyzer,
// and the cheaper arbiters touch only a fraction of the pairs (TDMA
// reads same-core pairs only; RR reads remote pairs at a single level),
// so an eager O(n²) set-work build would cost more than it saves.
//
// Tables are NOT safe for concurrent use: lazy filling mutates shared
// state. Analyzers sharing one Tables (AnalyzeAll) must run
// sequentially; AnalyzeBatchOpts gives each worker its own Tables.
//
// Ownership: pair columns, curve backbones and evictor lists all come
// from one allocator, carve, which cuts them from the Tables' arena
// (tableArena) or calls make. Only the first Tables of a memo-less
// analyzeChecked request has an arena — pooled memory that the next
// request overwrites — so nothing carved from it may outlive the
// request: not into a MemoStore (memo-attached Tables never get an
// arena, their backbones and columns are shared across requests), not
// into a Result, not into an Explanation (Explain, MaxDMem and
// NewAnalyzer build their own arena-less Tables).

// taskRef pairs a task with its dense index into Tables.tasks so hot
// loops can reach per-task caches without map lookups.
type taskRef struct {
	t   *taskmodel.Task
	idx int
}

// pairTab holds the loop-invariant terms for one (level i, task j)
// pair, with j's own core implied: every call site of γ and the CPRO
// bounds passes core(j), so a two-dimensional table suffices.
type pairTab struct {
	// gamma is γ_{i,j,core(j)} under the tables' CRPD approach.
	gamma int64
	// unionOverlap is |PCB_j ∩ ∪_{s ∈ hep(i)∩Γcore(j)\{j}} ECB_s|,
	// the (n−1)-multiplier of Eq. (14).
	unionOverlap int64
	// evictors are the per-evictor terms of the multiset CPRO bound.
	evictors []persistence.EvictorTerm

	gammaBuilt   bool
	persistBuilt bool
}

// Tables caches the loop-invariant interference quantities of one task
// set under one CRPD approach. CPRO approach and persistence on/off are
// call-time choices — the cached data covers all of them — so one
// Tables serves every Config sharing the CRPD approach.
type Tables struct {
	ts   *taskmodel.TaskSet
	crpd crpd.Approach

	// tasks is ts.Tasks (priority-ascending); prioIdx maps a priority
	// value to its index.
	tasks   []*taskmodel.Task
	prioIdx map[int]int
	// pcb caches |PCB_j| (Eq. 10 residual term, FullReload CPRO).
	pcb []int64
	// byCore lists each core's tasks in priority-ascending order — the
	// Γ_x iteration sets of the γ fast path.
	byCore [][]taskRef

	// pairs[ii] is level ii's pair column, indexed by task index,
	// attached on first pair touch (pairCol) and filled lazily per entry.
	pairs [][]pairTab
	// coreOff are the prefix sums of the byCore sizes: core y's tasks
	// occupy [coreOff[y], coreOff[y+1]) slots of any per-task flat
	// backing laid out core-by-core.
	coreOff []int
	// coreIdx mirrors byCore as dense task indices. Because hep∩Γ_y and
	// lp∩Γ_y partition byCore[y] in order at every level, one per-core
	// column serves all levels' remote cursors (only the split differs).
	coreIdx [][]int32
	// hepCnt[ii*m+y] is |hep(ii) ∩ Γ_y| — the priority cutoff splitting
	// byCore[y] into the level's hep prefix and lp tail. It backs the
	// hep/lp/hp views and the shape questions of the warm path
	// (curve-key cutoffs, hasLP).
	hepCnt []int32
	// curves holds the per-level breakpoint-curve materializations of
	// the event-driven fixed point (curves.go), filled lazily like the
	// pair columns and shared across configurations.
	curves []levelCurves
	// hepECB[j] is ∪_{h ∈ Γcore(j) ∩ hep(j)} ECB_h, the evicting union
	// of Eq. (2); hepECBDone flags cores whose column is built. The
	// per-core build is a single running union over byCore, so the whole
	// column costs |Γ_x| set unions instead of O(|Γ_x|²) rebuilds.
	hepECB     []cacheset.Set
	hepECBDone []bool
	// scratch collects evictor ECBs and evBuf the positive evictor
	// terms during pair fills without reallocating.
	scratch []cacheset.Set
	evBuf   []persistence.EvictorTerm
	// ar is the arena carve cuts from; zero (every slab empty) unless
	// analyzeChecked handed this Tables the request's pooled scratch.
	ar tableArena

	// memo, when non-nil, is the shared content-addressed store
	// (memo.go): curve materializations fetch whole backbones from it
	// and cold builds fill whole pair columns from it instead of
	// computing per pair. gammaDig/persistDig cache the per-task
	// digests; chainKeys/chainWM are the dense Merkle-chain arena
	// (chainSlot) and colKeys the assembled curve keys; kw is the
	// reusable hash writer all key assembly runs through (keyWriter).
	memo       *MemoStore
	gammaDig   []memoKey
	persistDig []memoKey
	chainKeys  []memoKey
	chainWM    []int
	colKeys    map[uint64]memoKey
	kw         hashWriter
}

// PrecomputeTables prepares lazily-filled interference tables for the
// task set under the given CRPD approach. The task set must already be
// validated and must not be mutated while the tables are in use.
func PrecomputeTables(ts *taskmodel.TaskSet, ap crpd.Approach) *Tables {
	n, m := len(ts.Tasks), ts.Platform.NumCores
	tb := &Tables{
		ts:         ts,
		crpd:       ap,
		tasks:      ts.Tasks,
		prioIdx:    make(map[int]int, n),
		pcb:        make([]int64, n),
		byCore:     make([][]taskRef, m),
		coreOff:    make([]int, m+1),
		coreIdx:    make([][]int32, m),
		pairs:      make([][]pairTab, n),
		hepECB:     make([]cacheset.Set, n),
		hepECBDone: make([]bool, m),
	}
	for _, t := range ts.Tasks {
		tb.coreOff[t.Core+1]++
	}
	for y := 0; y < m; y++ {
		tb.coreOff[y+1] += tb.coreOff[y]
	}
	// One backing each for byCore and coreIdx, core y's tasks at
	// [coreOff[y], coreOff[y+1]).
	refBacking := make([]taskRef, n)
	idxBacking := make([]int32, n)
	for y := range tb.byCore {
		tb.byCore[y] = refBacking[tb.coreOff[y]:tb.coreOff[y]:tb.coreOff[y+1]]
		tb.coreIdx[y] = idxBacking[tb.coreOff[y]:tb.coreOff[y+1]]
	}
	for i, t := range ts.Tasks {
		tb.prioIdx[t.Priority] = i
		tb.pcb[i] = int64(t.PCB.Count())
		tb.coreIdx[t.Core][len(tb.byCore[t.Core])] = int32(i)
		tb.byCore[t.Core] = append(tb.byCore[t.Core], taskRef{t: t, idx: i})
	}
	// Levels (tb.tasks) and byCore are both priority-ascending, so each
	// per-core cutoff column is a single merge walk.
	tb.hepCnt = make([]int32, n*m)
	for y, refs := range tb.byCore {
		p := 0
		for ii, t := range tb.tasks {
			for p < len(refs) && refs[p].t.Priority <= t.Priority {
				p++
			}
			tb.hepCnt[ii*m+y] = int32(p)
		}
	}
	return tb
}

// hepCount returns |hep(ii) ∩ Γ_y|.
func (tb *Tables) hepCount(ii, y int) int {
	return int(tb.hepCnt[ii*tb.ts.Platform.NumCores+y])
}

// hasLP reports a lower-priority task on level ii's own core (the +1
// blocking term).
func (tb *Tables) hasLP(ii int) bool {
	y := tb.tasks[ii].Core
	return tb.hepCount(ii, y) < len(tb.byCore[y])
}

// hepEcb returns the cached evicting union for task jj, building its
// core's whole column on first access.
func (tb *Tables) hepEcb(jj int) cacheset.Set {
	core := tb.tasks[jj].Core
	if !tb.hepECBDone[core] {
		u := cacheset.New(tb.ts.Platform.Cache.NumSets)
		for _, ref := range tb.byCore[core] {
			u.UnionInPlace(ref.t.ECB)
			tb.hepECB[ref.idx] = u.Clone()
		}
		tb.hepECBDone[core] = true
	}
	return tb.hepECB[jj]
}

// hep returns hep(ii) ∩ Γ_y in priority order: byCore[y] is
// priority-ascending, so it is the prefix below the level's cutoff —
// the BAO (Eq. 3) iteration set and the CPRO evictor candidates.
func (tb *Tables) hep(ii, y int) []taskRef {
	k := tb.hepCount(ii, y)
	return tb.byCore[y][:k:k]
}

// lp returns lp(ii) ∩ Γ_y, the suffix of byCore[y] past the level's
// cutoff (BAO_low, Eq. 7).
func (tb *Tables) lp(ii, y int) []taskRef {
	return tb.byCore[y][tb.hepCount(ii, y):]
}

// hp returns the same-core higher-priority tasks of level ii (BAS,
// Eq. 1, and the processor-interference sum of Eq. 19): its own hep
// prefix without the level's task, which priorities being unique puts
// last.
func (tb *Tables) hp(ii int) []taskRef {
	hep := tb.hep(ii, tb.tasks[ii].Core)
	k := len(hep) - 1
	return hep[:k:k]
}

// pairCol returns level ii's pair column, attached on first touch — an
// analysis whose curves are all served from the shared store never
// pays for it. Carved from the request arena when there is one (sized
// for every level's column), allocated otherwise.
func (tb *Tables) pairCol(ii int) []pairTab {
	if tb.pairs[ii] == nil {
		tb.pairs[ii] = carve(&tb.ar.pairs, len(tb.tasks))
	}
	return tb.pairs[ii]
}

// pair returns the (level ii, task jj) entry with the γ column filled.
// The default ECB-union approach is computed in place from the cached
// evicting union and the core's priority-ordered task list — Eq. (2)
// with zero allocations; other approaches go through crpd.Gamma.
func (tb *Tables) pair(ii, jj int) *pairTab {
	p := &tb.pairCol(ii)[jj]
	if !p.gammaBuilt {
		p.gamma = tb.computeGamma(ii, jj)
		p.gammaBuilt = true
	}
	return p
}

// computeGamma evaluates γ_{ii,jj,core(jj)} directly — the shared body
// of the per-pair fill and the memoized column builds, so both paths
// produce bit-identical values.
func (tb *Tables) computeGamma(ii, jj int) int64 {
	ti, tj := tb.tasks[ii], tb.tasks[jj]
	switch {
	case tj.Priority >= ti.Priority:
		return 0 // τ_j cannot preempt level i
	case tb.crpd == crpd.ECBUnion:
		ecbs := tb.hepEcb(jj)
		var worst int64
		for _, g := range tb.byCore[tj.Core] {
			if g.t.Priority <= tj.Priority {
				continue // evictor, not affected
			}
			if g.t.Priority > ti.Priority {
				break // byCore is priority-ascending
			}
			if c := int64(g.t.UCB.IntersectCount(ecbs)); c > worst {
				worst = c
			}
		}
		return worst
	default:
		return crpd.Gamma(tb.ts, tb.crpd, ti.Priority, tj.Priority, tj.Core)
	}
}

// pairPersist additionally fills the CPRO overlap columns. The evictor
// set hep(i) ∩ Γcore(j) \ {j} is read off the level's hep prefix, so
// the fill performs exactly the |hep| intersections the bound needs and
// nothing else.
func (tb *Tables) pairPersist(ii, jj int) *pairTab {
	p := tb.pair(ii, jj)
	if p.persistBuilt {
		return p
	}
	p.unionOverlap, p.evictors = tb.computePersist(tb.hep(ii, tb.tasks[jj].Core), jj)
	p.persistBuilt = true
	return p
}

// computePersist evaluates task jj's CPRO terms against the evictor
// prefix hep — the shared body of the per-pair fill and the memoized
// column builds, so memoized and direct entries are bit-identical. The
// evictor list exists only when the union overlap is positive, and is
// carved at exactly its length.
func (tb *Tables) computePersist(hep []taskRef, jj int) (int64, []persistence.EvictorTerm) {
	tj := tb.tasks[jj]
	tb.scratch = tb.scratch[:0]
	for _, s := range hep {
		if s.idx == jj {
			continue
		}
		tb.scratch = append(tb.scratch, s.t.ECB)
	}
	unionOverlap := int64(tj.PCB.IntersectCountUnion(tb.scratch...))
	if unionOverlap == 0 {
		return 0, nil
	}
	tb.evBuf = tb.evBuf[:0]
	for _, s := range hep {
		if s.idx == jj {
			continue
		}
		if ov := int64(tj.PCB.IntersectCount(s.t.ECB)); ov > 0 {
			tb.evBuf = append(tb.evBuf, persistence.EvictorTerm{Period: s.t.Period, Overlap: ov})
		}
	}
	evictors := carve(&tb.ar.evictors, len(tb.evBuf))
	copy(evictors, tb.evBuf)
	return unionOverlap, evictors
}

// compatible reports whether the tables, built for their original task
// set, remain valid for ts: same shape and same scalar parameters per
// task. Cache footprints are assumed identical (the intended use is the
// d_mem sensitivity probes, which clone tasks verbatim); callers that
// alter ECB/UCB/PCB sets must precompute fresh tables.
func (tb *Tables) compatible(ts *taskmodel.TaskSet) error {
	if ts.Platform.NumCores != tb.ts.Platform.NumCores {
		return fmt.Errorf("core: tables built for %d cores, task set has %d",
			tb.ts.Platform.NumCores, ts.Platform.NumCores)
	}
	if len(ts.Tasks) != len(tb.tasks) {
		return fmt.Errorf("core: tables built for %d tasks, task set has %d",
			len(tb.tasks), len(ts.Tasks))
	}
	for i, t := range ts.Tasks {
		o := tb.tasks[i]
		if t.Priority != o.Priority || t.Core != o.Core ||
			t.PD != o.PD || t.MD != o.MD || t.MDr != o.MDr ||
			t.Period != o.Period || t.Deadline != o.Deadline {
			return fmt.Errorf("core: task %q differs from the one the tables were built for", t.Name)
		}
	}
	return nil
}

// tableArena is the request-scoped backing store of a memo-less
// Tables: each slab is the unused remainder of a pooled buffer
// (analysisScratch.arena sizes them for the request), carved front to
// back. The zero arena — every Tables PrecomputeTables returns, and
// every memo-attached one — has empty slabs, so carve falls through to
// make and the memory is ordinary heap.
type tableArena struct {
	pairs    []pairTab
	terms    []termCurve
	evictors []persistence.EvictorTerm
}

// carve is the Tables' one allocator for pair columns, curve backbones
// and evictor lists: n zeroed elements cut from the front of *slab, or
// a fresh make when the slab cannot hold them.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if len(s) < n {
		return make([]T, n)
	}
	*slab = s[n:]
	s = s[:n:n]
	clear(s)
	return s
}
