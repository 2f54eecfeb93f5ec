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
// Everything is filled lazily — rows (the per-level task slices) on
// first use of an analysis level, pair entries (the set-derived
// numbers) on first use of a (level, task) pair. Laziness matters
// twice: the OPA search (internal/opa) probes one level per analyzer,
// and the cheaper arbiters touch only a fraction of the pairs (TDMA
// reads same-core pairs only; RR reads remote pairs at a single level),
// so an eager O(n²) set-work build would cost more than it saves.
//
// Tables are NOT safe for concurrent use: lazy filling mutates shared
// state. Analyzers sharing one Tables (AnalyzeAll) must run
// sequentially; AnalyzeBatchOpts gives each worker its own Tables.

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

// row holds the task slices the level-i equations iterate over.
type row struct {
	// hp lists the same-core higher-priority tasks (BAS, Eq. 1, and the
	// processor-interference sum of Eq. 19).
	hp []taskRef
	// hep[y] lists hep(i) ∩ Γ_y per core (BAO, Eq. 3).
	hep [][]taskRef
	// lp[y] lists lp(i) ∩ Γ_y per core (BAO_low, Eq. 7).
	lp [][]taskRef
	// hasLP reports a lower-priority task on i's own core (the +1 term).
	hasLP bool
	// pair is indexed by task index, attached on first pair touch
	// (ensurePairs) and filled lazily per entry.
	pair []pairTab
	// built marks the row's task slices as constructed; the pair column
	// attaches separately so memo-served analyses never need it.
	built bool
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

	// rows is indexed by level. Value slices (one allocation for all
	// levels) keep the table build off the allocator's hot path.
	rows []row
	// pairBlock is the n×n backing of the rows' pair slices, allocated
	// once on the first pair touch anywhere — an analysis whose curves
	// are all served from the shared store never pays for it.
	pairBlock []pairTab
	// coreOff are the prefix sums of the byCore sizes: core y's tasks
	// occupy [coreOff[y], coreOff[y+1]) slots of any per-task flat
	// backing laid out core-by-core.
	coreOff []int
	// coreIdx mirrors byCore as dense task indices. Because hep∩Γ_y and
	// lp∩Γ_y partition byCore[y] in order at every level, one per-core
	// column serves all levels' remote cursors (only the split differs).
	coreIdx [][]int32
	// hepCnt[ii*m+y] is |hep(ii) ∩ Γ_y| — the priority cutoff splitting
	// byCore[y] into the level's hep prefix and lp tail. It answers the
	// shape questions of the warm path (curve-key cutoffs, hasLP) without
	// materializing the row's task slices.
	hepCnt []int32
	// curves holds the per-level breakpoint-curve materializations of
	// the event-driven fixed point (curves.go), filled lazily like the
	// rows and shared across configurations.
	curves []levelCurves
	// hepECB[j] is ∪_{h ∈ Γcore(j) ∩ hep(j)} ECB_h, the evicting union
	// of Eq. (2); hepECBDone flags cores whose column is built. The
	// per-core build is a single running union over byCore, so the whole
	// column costs |Γ_x| set unions instead of O(|Γ_x|²) rebuilds.
	hepECB     []cacheset.Set
	hepECBDone []bool
	// scratch collects evictor ECBs during pair fills without
	// reallocating.
	scratch []cacheset.Set

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
	tb := &Tables{
		ts:         ts,
		crpd:       ap,
		tasks:      ts.Tasks,
		prioIdx:    make(map[int]int, len(ts.Tasks)),
		pcb:        make([]int64, len(ts.Tasks)),
		byCore:     make([][]taskRef, ts.Platform.NumCores),
		rows:       make([]row, len(ts.Tasks)),
		hepECB:     make([]cacheset.Set, len(ts.Tasks)),
		hepECBDone: make([]bool, ts.Platform.NumCores),
	}
	for i, t := range ts.Tasks {
		tb.prioIdx[t.Priority] = i
		tb.pcb[i] = int64(t.PCB.Count())
		tb.byCore[t.Core] = append(tb.byCore[t.Core], taskRef{t: t, idx: i})
	}
	tb.coreOff = make([]int, ts.Platform.NumCores+1)
	for y, refs := range tb.byCore {
		tb.coreOff[y+1] = tb.coreOff[y] + len(refs)
	}
	tb.coreIdx = make([][]int32, ts.Platform.NumCores)
	idxBacking := make([]int32, len(ts.Tasks))
	for y, refs := range tb.byCore {
		part := idxBacking[tb.coreOff[y]:tb.coreOff[y+1]]
		for i, ref := range refs {
			part[i] = int32(ref.idx)
		}
		tb.coreIdx[y] = part
	}
	// Levels (tb.tasks) and byCore are both priority-ascending, so each
	// per-core cutoff column is a single merge walk.
	m := ts.Platform.NumCores
	tb.hepCnt = make([]int32, len(ts.Tasks)*m)
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

// hepCount returns |hep(ii) ∩ Γ_y| without building the level's row.
func (tb *Tables) hepCount(ii, y int) int {
	return int(tb.hepCnt[ii*tb.ts.Platform.NumCores+y])
}

// hasLP reports a lower-priority task on level ii's own core (the +1
// blocking term) without building the row.
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

// row returns level ii's task slices, built on first access. The build
// involves no cache-set work.
func (tb *Tables) row(ii int) *row {
	r := &tb.rows[ii]
	if r.built {
		return r
	}
	ti := tb.tasks[ii]
	m := tb.ts.Platform.NumCores
	n := len(tb.tasks)
	r.built = true
	r.hp = make([]taskRef, 0, len(tb.byCore[ti.Core]))
	// hep[y] ∪ lp[y] partition Γ_y; byCore is priority-ascending, so
	// the boundary index gives both slices exact, growth-free capacity
	// out of a single backing array shared by all cores (laid out at
	// the coreOff offsets).
	hdr := make([][]taskRef, 2*m)
	r.hep, r.lp = hdr[:m:m], hdr[m:]
	backing := make([]taskRef, n)
	for y := 0; y < m; y++ {
		split := 0
		for _, ref := range tb.byCore[y] {
			if ref.t.Priority > ti.Priority {
				break
			}
			split++
		}
		part := backing[tb.coreOff[y]:tb.coreOff[y+1]]
		r.hep[y] = part[:0:split]
		r.lp[y] = part[split:split]
	}
	for jj, tj := range tb.tasks {
		ref := taskRef{t: tj, idx: jj}
		switch {
		case tj.Priority < ti.Priority:
			if tj.Core == ti.Core {
				r.hp = append(r.hp, ref)
			}
			r.hep[tj.Core] = append(r.hep[tj.Core], ref)
		case tj.Priority == ti.Priority:
			r.hep[tj.Core] = append(r.hep[tj.Core], ref)
		default:
			r.lp[tj.Core] = append(r.lp[tj.Core], ref)
			if tj.Core == ti.Core {
				r.hasLP = true
			}
		}
	}
	return r
}

// ensurePairs attaches level ii's pair column. Without a memo store
// the n×n backing is allocated once and shared by all rows — every
// level will need its column. With a store attached most columns are
// never touched (backbones arrive memo-served), so each row gets its
// own n-sized column on demand and the quadratic block is never paid.
func (tb *Tables) ensurePairs(ii int, r *row) {
	if r.pair != nil {
		return
	}
	n := len(tb.tasks)
	if tb.memo != nil {
		r.pair = make([]pairTab, n)
		return
	}
	if tb.pairBlock == nil {
		tb.pairBlock = make([]pairTab, n*n)
	}
	r.pair = tb.pairBlock[ii*n : (ii+1)*n : (ii+1)*n]
}

// pair returns the (level ii, task jj) entry with the γ column filled.
// The default ECB-union approach is computed in place from the cached
// evicting union and the core's priority-ordered task list — Eq. (2)
// with zero allocations; other approaches go through crpd.Gamma.
func (tb *Tables) pair(ii int, r *row, jj int) *pairTab {
	if r.pair == nil {
		tb.ensurePairs(ii, r)
	}
	p := &r.pair[jj]
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
// set hep(i) ∩ Γcore(j) \ {j} is read off the row's hep slice, so the
// fill performs exactly the |hep| intersections the bound needs and
// nothing else.
func (tb *Tables) pairPersist(ii int, r *row, jj int) *pairTab {
	p := tb.pair(ii, r, jj)
	if p.persistBuilt {
		return p
	}
	p.unionOverlap, p.evictors = tb.computePersist(r.hep[tb.tasks[jj].Core], jj)
	p.persistBuilt = true
	return p
}

// computePersist evaluates task jj's CPRO terms against the evictor
// prefix hep — the shared body of the per-pair fill and the memoized
// column builds. The evictor slice is only allocated when the union
// overlap is positive, exactly as the original per-pair fill did, so
// memoized and direct entries are bit-identical.
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
	var evictors []persistence.EvictorTerm
	if unionOverlap > 0 {
		evictors = make([]persistence.EvictorTerm, 0, len(tb.scratch))
		for _, s := range hep {
			if s.idx == jj {
				continue
			}
			if ov := int64(tj.PCB.IntersectCount(s.t.ECB)); ov > 0 {
				evictors = append(evictors, persistence.EvictorTerm{Period: s.t.Period, Overlap: ov})
			}
		}
	}
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
