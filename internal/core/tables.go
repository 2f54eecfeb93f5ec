package core

import (
	"fmt"

	"repro/internal/cacheset"
	"repro/internal/crpd"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
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
// One layout: a level i reads core y's tasks only through its cutoff
// k = |hep(i)∩Γ_y|, the length of the priority-ordered prefix of
// byCore[y] that hep(i) covers. So every cached quantity lives in the
// slot of (core y, cutoff k) — the same dense index the memo's key
// chains use (chainSlot) — and every level with that cutoff on y reads
// it: the γ column of the prefix, the CPRO column of every task of Γ_y
// against the prefix, and the curve backbones built from them
// (curves.go). Each item has one accessor that fills it on first touch,
// from the shared store when one is attached (memo.go; a hit aliases
// the published slice) and computed directly otherwise. The per-level
// task lists need no build at all: hep(i)∩Γ_y and lp(i)∩Γ_y are the
// prefix and suffix of byCore[y] at the level's cutoff. Laziness
// matters: the OPA search (internal/opa) probes one level per analyzer,
// and the cheaper arbiters touch only a fraction of the slots (TDMA
// reads same-core backbones only; RR reads remote ones at a single
// level).
//
// tables are NOT safe for concurrent use: lazy filling mutates shared
// state. Analyzers sharing one tables (AnalyzeAll) must run
// sequentially; AnalyzeBatchOpts gives each worker its own tables.
//
// Ownership: columns, curve backbones and evictor lists all come from
// one allocator, carve, which cuts them from the tables' arena
// (tableArena) or calls make. Only the first tables of a memo-less
// analyzeChecked request has an arena — pooled memory that the next
// request overwrites — so nothing carved from it may outlive the
// request: not into a MemoStore (memo-attached tables never get an
// arena, their backbones and columns are shared across requests), not
// into a Result, not into an Explanation (Explain, MaxDMem and
// NewAnalyzer build their own arena-less tables).

// taskRef pairs a task with its dense index into tables.tasks so hot
// loops can reach per-task caches without map lookups.
type taskRef struct {
	t   *taskmodel.Task
	idx int
}

// cproEntry is one task's CPRO terms against a prefix of its core's
// tasks (the task itself excluded from the evictors).
type cproEntry struct {
	// unionOverlap is |PCB_j ∩ ∪_{s ∈ prefix\{j}} ECB_s|, the
	// (n−1)-multiplier of Eq. (14).
	unionOverlap int64
	// evictors are the per-evictor terms of the multiset CPRO bound.
	evictors []persistence.EvictorTerm
}

// slot holds what the tables cache for core y at cutoff k. Nil columns
// are unfilled; depths are 0 (unbuilt), 1 (γ depth) or 2 (CPRO depth).
type slot struct {
	// gamma[shape] holds γ_{i,j,y} for the k prefix tasks j, in byCore
	// order, for any level i with this cutoff. shape is gammaFlavor:
	// under crpd.ECBOnly, levels on core y itself see the selfLast shape.
	gamma [2][]int64
	// cpro and cproLow are the CPRO column of Γ_y against the prefix,
	// split at k: the store publishes the prefix tasks' terms as one
	// column and each lp task's under its own key.
	cpro, cproLow []cproEntry
	// same is the same-core backbone of the level whose cutoff on its
	// own core is k (its k−1 hp terms); remote[shape] the remote
	// backbone hep ++ lp, split at k by the reader.
	same        []termCurve
	remote      [2][]termCurve
	sameDepth   uint8
	remoteDepth [2]uint8
}

// tables caches the loop-invariant interference quantities of one task
// set under one CRPD approach. CPRO approach and persistence on/off are
// call-time choices — the cached data covers all of them — so one
// tables serves every Config sharing the CRPD approach.
type tables struct {
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
	// coreOff are the prefix sums of the byCore sizes: core y's tasks
	// occupy [coreOff[y], coreOff[y+1]) slots of any per-task flat
	// backing laid out core-by-core, and its cutoffs 0..|Γ_y| the slots
	// [coreOff[y]+y, coreOff[y+1]+y] of any per-cutoff one.
	coreOff []int
	// coreIdx mirrors byCore as dense task indices. Because hep∩Γ_y and
	// lp∩Γ_y partition byCore[y] in order at every level, one per-core
	// column serves all levels' remote cursors (only the split differs).
	coreIdx [][]int32
	// hepCnt[ii*m+y] is |hep(ii) ∩ Γ_y| — the priority cutoff splitting
	// byCore[y] into the level's hep prefix and lp tail, and the slot
	// the level reads on core y.
	hepCnt []int32
	// slots[coreOff[y]+y+k] is core y's slot at cutoff k, allocated on
	// first touch.
	slots []slot
	// layout counts the slots' entries per slab kind.
	layout layoutSize
	// hepECB[j] is ∪_{h ∈ Γcore(j) ∩ hep(j)} ECB_h, the evicting union
	// of Eq. (2); hepECBDone flags cores whose column is built. The
	// per-core build is a single running union over byCore, so the whole
	// column costs |Γ_x| set unions instead of O(|Γ_x|²) rebuilds.
	hepECB     []cacheset.Set
	hepECBDone []bool
	// scratch collects evictor ECBs and evBuf the positive evictor
	// terms during CPRO fills without reallocating.
	scratch []cacheset.Set
	evBuf   []persistence.EvictorTerm
	// ar is the arena carve cuts from; zero (every slab empty) unless
	// analyzeChecked handed this tables the request's pooled scratch.
	ar tableArena

	// memo, when non-nil, is the shared content-addressed store
	// (memo.go) the slot accessors fill from. gammaDig/persistDig cache
	// the per-task digests; chainKeys/chainWM are the dense Merkle-chain
	// arena (chainSlot); kw is the reusable hash writer all key assembly
	// runs through (keyWriter).
	memo       *MemoStore
	gammaDig   []memoKey
	persistDig []memoKey
	chainKeys  []memoKey
	chainWM    []int
	kw         hashWriter
}

// precomputeTables prepares lazily-filled interference tables for the
// task set under the given CRPD approach. The task set must already be
// validated and must not be mutated while the tables are in use.
func precomputeTables(ts *taskmodel.TaskSet, ap crpd.Approach) *tables {
	n, m := len(ts.Tasks), ts.Platform.NumCores
	tb := &tables{
		ts:         ts,
		crpd:       ap,
		tasks:      ts.Tasks,
		prioIdx:    make(map[int]int, n),
		pcb:        make([]int64, n),
		byCore:     make([][]taskRef, m),
		coreOff:    make([]int, m+1),
		coreIdx:    make([][]int32, m),
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
		g := len(refs)
		tb.layout.gamma += g * (g + 1) / 2
		tb.layout.terms += g*(g-1)/2 + (g+1)*g
		tb.layout.cpro += (g + 1) * g
		tb.layout.evictors += (g - 1) * g * (g + 1) / 2
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
func (tb *tables) hepCount(ii, y int) int {
	return int(tb.hepCnt[ii*tb.ts.Platform.NumCores+y])
}

// hasLP reports a lower-priority task on level ii's own core (the +1
// blocking term).
func (tb *tables) hasLP(ii int) bool {
	y := tb.tasks[ii].Core
	return tb.hepCount(ii, y) < len(tb.byCore[y])
}

// hepEcb returns the cached evicting union for task jj, building its
// core's whole column on first access.
func (tb *tables) hepEcb(jj int) cacheset.Set {
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

// hp returns the same-core higher-priority tasks of level ii (BAS,
// Eq. 1, and the processor-interference sum of Eq. 19): its own hep
// prefix of the priority-ascending byCore list without the level's
// task, which priorities being unique puts last.
func (tb *tables) hp(ii int) []taskRef {
	y := tb.tasks[ii].Core
	k := tb.hepCount(ii, y) - 1
	return tb.byCore[y][:k:k]
}

// slot returns core y's slot at cutoff k.
func (tb *tables) slot(y, k int) *slot {
	if tb.slots == nil {
		tb.slots = make([]slot, len(tb.tasks)+len(tb.byCore))
	}
	return &tb.slots[tb.coreOff[y]+y+k]
}

// gammaCol returns the γ column level ii reads on core y: γ_{ii,j,y}
// for every j in hep(ii)∩Γ_y, in byCore order. Any level with the same
// cutoff and shape yields the same column, so ii merely stands for
// them all.
func (tb *tables) gammaCol(ii, y int, obs *telemetry.Observer) []int64 {
	k, shape := tb.hepCount(ii, y), tb.gammaFlavor(ii, y)
	s := tb.slot(y, k)
	if s.gamma[shape] != nil || k == 0 {
		return s.gamma[shape]
	}
	if tb.memo != nil {
		s.gamma[shape] = tb.memo.getOrComputeColumn(tb.colKey(y, k, shape), obs, func() *memoColumn {
			return &memoColumn{gamma: tb.computeGammaCol(ii, y, k)}
		}).gamma
	} else {
		s.gamma[shape] = tb.computeGammaCol(ii, y, k)
	}
	return s.gamma[shape]
}

// computeGammaCol evaluates level ii's γ column on core y, whose
// cutoff is k.
func (tb *tables) computeGammaCol(ii, y, k int) []int64 {
	col := carve(&tb.ar.gamma, k, tb.columnRefill(tb.layout.gamma))
	for pos, ref := range tb.byCore[y][:k] {
		col[pos] = tb.computeGamma(ii, ref.idx)
	}
	return col
}

// computeGamma evaluates γ_{ii,jj,core(jj)} directly. The default
// ECB-union approach is computed in place from the cached evicting
// unions and the core's priority-ordered task list — Eq. (2) with zero
// allocations; other approaches go through crpd.Gamma.
func (tb *tables) computeGamma(ii, jj int) int64 {
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

// cproCol returns the CPRO terms of core y's cutoff-k prefix tasks,
// each against the rest of the prefix: the evictor set
// hep(i) ∩ Γ_y \ {j} of every level with that cutoff.
func (tb *tables) cproCol(y, k int, obs *telemetry.Observer) []cproEntry {
	s := tb.slot(y, k)
	if s.cpro != nil || k == 0 {
		return s.cpro
	}
	prefix := tb.byCore[y][:k]
	if tb.memo != nil {
		s.cpro = tb.memo.getOrComputeColumn(tb.colKey(y, k, colPersist), obs, func() *memoColumn {
			return &memoColumn{cpro: tb.computeCPRO(y, k, prefix)}
		}).cpro
	} else {
		s.cpro = tb.computeCPRO(y, k, prefix)
	}
	return s.cpro
}

// cproLowCol returns the CPRO terms of core y's tasks past cutoff k
// against the whole prefix — the BAO_low entries of a remote backbone.
func (tb *tables) cproLowCol(y, k int, obs *telemetry.Observer) []cproEntry {
	s := tb.slot(y, k)
	tail := tb.byCore[y][k:]
	if s.cproLow != nil || len(tail) == 0 {
		return s.cproLow
	}
	if tb.memo == nil {
		s.cproLow = tb.computeCPRO(y, k, tail)
		return s.cproLow
	}
	s.cproLow = make([]cproEntry, len(tail))
	for pos := range tail {
		one := tail[pos : pos+1]
		s.cproLow[pos] = tb.memo.getOrComputeColumn(tb.lpKey(y, k, one[0].idx), obs, func() *memoColumn {
			return &memoColumn{cpro: tb.computeCPRO(y, k, one)}
		}).cpro[0]
	}
	return s.cproLow
}

// computeCPRO evaluates the CPRO terms of refs against core y's
// cutoff-k prefix.
func (tb *tables) computeCPRO(y, k int, refs []taskRef) []cproEntry {
	prefix := tb.byCore[y][:k]
	col := carve(&tb.ar.cpro, len(refs), tb.columnRefill(tb.layout.cpro))
	for pos, ref := range refs {
		col[pos] = tb.computePersist(prefix, ref.idx)
	}
	return col
}

// computePersist evaluates task jj's CPRO terms against the evictor
// prefix hep, performing exactly the |hep| intersections the bound
// needs. The evictor list exists only when the union overlap is
// positive, and is carved at exactly its length.
func (tb *tables) computePersist(hep []taskRef, jj int) cproEntry {
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
		return cproEntry{}
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
	evictors := carve(&tb.ar.evictors, len(tb.evBuf), 0)
	copy(evictors, tb.evBuf)
	return cproEntry{unionOverlap: unionOverlap, evictors: evictors}
}

// compatible reports whether the tables, built for their original task
// set, remain valid for ts: same shape and same scalar parameters per
// task. Cache footprints are assumed identical (the intended use is the
// d_mem sensitivity probes, which clone tasks verbatim); callers that
// alter ECB/UCB/PCB sets must precompute fresh tables.
func (tb *tables) compatible(ts *taskmodel.TaskSet) error {
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

// layoutSize counts the entries of the slot layout per slab kind,
// summed over the cores y, with g = |Γ_y| tasks, and their cutoffs
// k = 0..g: k γ entries, k−1 same-core and g remote backbone terms, and
// g CPRO entries of at most k evictors each.
type layoutSize struct {
	gamma, terms, cpro, evictors int
}

// columnRefill is the slab size a memo-less tables refills an exhausted
// column slab with: all the layout's entries of that kind (entries).
// So a tables without the pooled arena — NewAnalyzer's, Explain's,
// MaxDMem's, a request's second CRPD approach's — allocates one slab
// per column kind, not one column per slot. A memo-attached tables
// publishes each column it computes to the store, where evicting one
// must free it, so it refills nothing.
func (tb *tables) columnRefill(entries int) int {
	if tb.memo != nil {
		return 0
	}
	return entries
}

// tableArena is the request-scoped backing store of a memo-less
// tables: each slab is the unused remainder of a pooled buffer
// (analysisScratch.arena sizes them for the request), carved front to
// back. The zero arena — every tables precomputeTables returns, and
// every memo-attached one — has empty slabs, so carve refills them or
// falls through to make and the memory is ordinary heap.
type tableArena struct {
	gamma    []int64
	cpro     []cproEntry
	terms    []termCurve
	evictors []persistence.EvictorTerm
}

// carve is the tables' one allocator for columns, curve backbones and
// evictor lists: n zeroed elements cut from the front of *slab. A slab
// that cannot hold them is first replaced by refill fresh elements when
// refill ≥ n; otherwise they are a fresh make.
func carve[T any](slab *[]T, n, refill int) []T {
	s := *slab
	if len(s) < n {
		if refill < n {
			return make([]T, n)
		}
		s = make([]T, refill)
	}
	*slab = s[n:]
	s = s[:n:n]
	clear(s)
	return s
}
