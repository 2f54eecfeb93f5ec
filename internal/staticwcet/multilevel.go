package staticwcet

import (
	"fmt"

	"repro/internal/cacheset"
	"repro/internal/program"
	"repro/internal/taskmodel"
)

// Two-level cache hierarchy analysis — the paper's stated future work
// ("extend the proposed analysis to multilevel caches"). The L1
// analysis is the existing one; the L2 analysis follows Hardy & Puaut:
// a reference accesses L2 only if it may miss L1, so
//
//   - L1 always-hit references never reach L2 (no L2 state change);
//   - L1 always-miss references definitely access L2 (normal transfer);
//   - references that may or may not hit L1 (first-miss) update the L2
//     must state conservatively: ages advance as if the access
//     happened, but the block gains no guarantee (join of the
//     access/no-access outcomes).
//
// Bus traffic is the L2 miss count, so the hierarchy result plugs into
// the bus contention analysis as MD/MD^r, with the L2 footprints as
// ECB/PCB: the shared bus only ever sees L2 misses, and persistence
// between jobs lives in L2 (backed by L1 persistence for the subset
// that also fits there). The per-job L1 misses are reported so callers
// can fold the L1→L2 latency into the execution demand:
// PD_eff = PD + L1Misses·d_l2.
type HierResult struct {
	// PD is the pure execution demand (all hits), as in Result.
	PD taskmodel.Time
	// L1Misses bounds the references reaching L2 per job (paper-style
	// accounting, no first-miss credit).
	L1Misses int64
	// MD / MDr bound the bus accesses (L2 misses) per job, cold and
	// with L2 PCBs preloaded, in the paper-style accounting (no
	// first-miss credit).
	MD, MDr int64
	// MDExact / MDrExact additionally credit first-miss references
	// whose block is L2-persistent within an enclosing loop: they miss
	// L2 at most once per loop entry. These are the bounds that show
	// how much bus traffic the L2 genuinely absorbs.
	MDExact, MDrExact int64
	// ECB, PCB are the L2 cache-set footprints; UCB is the L2 reuse
	// footprint.
	ECB, UCB, PCB cacheset.Set
	// PCBBlocks are the L2-persistent memory blocks.
	PCBBlocks []int
}

// AnalyzeHierarchy analyses prog against a private L1 + private L2
// hierarchy with equal block sizes.
func AnalyzeHierarchy(prog *program.Program, l1, l2 taskmodel.CacheConfig) (*HierResult, error) {
	if l1.BlockSizeBytes != l2.BlockSizeBytes {
		return nil, fmt.Errorf("staticwcet: L1 block %dB != L2 block %dB", l1.BlockSizeBytes, l2.BlockSizeBytes)
	}
	if l2.NumSets < 1 {
		return nil, fmt.Errorf("staticwcet: L2 NumSets = %d, need >= 1", l2.NumSets)
	}
	l1res, err := Analyze(prog, l1)
	if err != nil {
		return nil, err
	}

	// L2 footprint and persistence (self-eviction rule at L2 geometry).
	blocksPerSet := map[int]map[int]bool{}
	for _, ref := range l1res.Refs {
		s := l2.SetOf(ref.Block)
		if blocksPerSet[s] == nil {
			blocksPerSet[s] = map[int]bool{}
		}
		blocksPerSet[s][ref.Block] = true
	}
	ecb := cacheset.New(l2.NumSets)
	pcb := cacheset.New(l2.NumSets)
	var pcbBlocks []int
	for s, blocks := range blocksPerSet {
		ecb.Add(s)
		if len(blocks) <= l2.Ways() {
			pcb.Add(s)
			for b := range blocks {
				pcbBlocks = append(pcbBlocks, b)
			}
		}
	}
	sortInts(pcbBlocks)

	// Loop structure at L2 geometry, for first-miss credit: how many
	// distinct footprint blocks of each loop share each L2 set.
	l2an := &analyzer{cache: l2}
	l2an.structure(prog.Root, nil, 1)
	l2an.indexFootprint()

	h := &hierWalker{
		l2:      l2,
		an:      l2an,
		classes: l1res.Refs,
	}
	warmSt := func() state {
		st := l2an.newState()
		for _, b := range pcbBlocks {
			st.install(l2an.slot(b), b)
		}
		return st
	}
	l1m, md, ucb := h.count(prog, l2an.newState(), false)
	_, mdExact, _ := h.count(prog, l2an.newState(), true)
	_, mdr, _ := h.count(prog, warmSt(), false)
	_, mdrExact, _ := h.count(prog, warmSt(), true)

	return &HierResult{
		PD:        l1res.PD,
		L1Misses:  l1m,
		MD:        md,
		MDr:       mdr,
		MDExact:   mdExact,
		MDrExact:  mdrExact,
		ECB:       ecb,
		UCB:       ucb,
		PCB:       pcb,
		PCBBlocks: pcbBlocks,
	}, nil
}

// hierWalker runs the L2 must analysis driven by the L1 per-reference
// classifications.
type hierWalker struct {
	l2      taskmodel.CacheConfig
	an      *analyzer // loop footprints at L2 geometry
	classes []RefReport
}

func (h *hierWalker) count(prog *program.Program, init state, fmCredit bool) (l1Misses, l2Misses int64, ucb cacheset.Set) {
	w := &hierPass{
		l2: h.l2, an: h.an, classes: h.classes,
		fmCredit: fmCredit,
		charged:  map[[2]int64]bool{},
		ucb:      cacheset.New(h.l2.NumSets),
	}
	w.walk(prog.Root, init, true)
	return w.l1Misses, w.l2Misses, w.ucb
}

type hierPass struct {
	l2       taskmodel.CacheConfig
	an       *analyzer
	classes  []RefReport
	fmCredit bool
	charged  map[[2]int64]bool
	refIdx   int
	l1Misses int64
	l2Misses int64
	ucb      cacheset.Set
}

// chargeL2 records the bus cost of one non-L2-guaranteed reference
// occurrence: with first-miss credit, a block that is L2-persistent in
// an enclosing loop pays once per loop entry (deduplicated per block
// and loop); otherwise every execution pays.
func (w *hierPass) chargeL2(block int, exec int64) {
	if w.fmCredit {
		ri := w.an.refs[w.refIdx-1]
		setIdx := w.l2.SetOf(block)
		for _, lid := range ri.loops { // outermost first
			if w.an.loops[lid].sets[setIdx] <= w.l2.Ways() {
				key := [2]int64{int64(block), int64(lid)}
				if !w.charged[key] {
					w.charged[key] = true
					w.l2Misses += w.an.loops[lid].entries
				}
				return
			}
		}
	}
	w.l2Misses += exec
}

func (w *hierPass) walk(n program.Node, st state, record bool) state {
	switch v := n.(type) {
	case *program.Ref:
		setIdx := w.l2.SetOf(v.Block)
		slot := w.an.slot(v.Block)
		var cls Classification
		var exec int64
		if record {
			rep := w.classes[w.refIdx]
			cls, exec = rep.Class, rep.ExecCount
			w.refIdx++
		} else {
			// Fixpoint passes do not consume the class stream; the
			// transfer only needs to know whether the access definitely
			// happens, so resolve by position lookahead is impossible —
			// instead, apply the conservative maybe-access transfer for
			// every non-recorded walk, which is sound (it only weakens
			// the state).
			cls = FirstMiss
		}
		switch cls {
		case AlwaysHit:
			// L1 satisfies the reference: L2 untouched.
			return st
		case AlwaysMiss:
			if record {
				w.l1Misses += exec
				if st.contains(slot, v.Block) {
					w.ucb.Add(setIdx)
				} else {
					w.chargeL2(v.Block, exec)
				}
			}
			st.access(slot, v.Block)
			return st
		default: // FirstMiss: the L2 access may or may not happen.
			if record {
				w.l1Misses += exec
				if st.contains(slot, v.Block) {
					w.ucb.Add(setIdx)
				} else {
					w.chargeL2(v.Block, exec)
				}
			}
			st.mayAccess(slot, v.Block)
			return st
		}
	case *program.Seq:
		for _, it := range v.Items {
			st = w.walk(it, st, record)
		}
		return st
	case *program.Alt:
		sa := w.walk(v.A, st.clone(), record)
		sb := w.walk(v.B, st, record)
		sa.meet(sb)
		return sa
	case *program.Loop:
		entry := st.clone()
		for {
			next := w.walk(v.Body, entry.clone(), false)
			next.meet(st)
			if next.equal(entry) {
				break
			}
			entry = next
		}
		return w.walk(v.Body, entry, record)
	default:
		panic(fmt.Sprintf("staticwcet: unknown node %T", n))
	}
}
