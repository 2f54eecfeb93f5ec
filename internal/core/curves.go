package core

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"repro/internal/persistence"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// Event-driven fixed-point engine.
//
// Every interference term of Eq. (19) — the processor preemption sum,
// the same-core access bounds of Eq. (1)/Lemma 1 and the remote
// W + W_cout terms of Eq. (3)–(6)/Lemma 2 — is a right-continuous
// monotone step function of the window length t. Its value only
// changes at breakpoints: job-release multiples n·T_j of the
// interfering task, the d_mem-granular steps of the carry-out ramp,
// and (under the multiset CPRO bound) the release multiples of each
// evictor. Between breakpoints the whole recurrence right-hand side
// f(t) is constant.
//
// The engine represents each term as a breakpoint curve: the
// loop-invariant constants (termCurve, one backbone per (core,
// cutoff) slot of the tables, shared by every level with that cutoff
// and every configuration with the same CRPD approach) plus a cursor
// holding the term's current value and the smallest t at which that
// value may change. Cursors only move forward — the fixed-point
// iterate is monotone non-decreasing — so one pass over the
// breakpoints in [seed, R] suffices. Evaluating f at a new iterate
// costs O(#crossed breakpoints) instead of O(#tasks); an iterate that
// crosses none is recognized in O(1) via the cached minimum
// next-breakpoint, in which case f(next) = f(r) = next and the
// iteration terminates immediately — the "breakpoint jump" that makes
// the recurrence converge in at most one evaluation per breakpoint
// region.
//
// Soundness of the skip: a cursor's next-breakpoint is always a lower
// bound on the true next change (it may fire early and recompute an
// unchanged value, never late), so a skipped re-evaluation provably
// returns the cached value. The iterate sequence is therefore exactly
// the naive chain r, f(r), f²(r), … of reference.go — including the
// deadline-abort value — which is what keeps the differential test
// bit-identical. See DESIGN.md ("Breakpoint-jumping fixed point").

const maxTime = taskmodel.Time(math.MaxInt64)

// termCurve is one interference curve's loop-invariant backbone entry:
// the interfering task's scalar parameters and its slot's column values,
// copied by value. Everything the step function needs except the
// current iterate t and (for remote terms) the remote response-time
// estimate R_l, which the cursor captures at reset — task identity
// (index, priority) lives on the cursor too, so a backbone slice is a
// pure function of its content key and can be shared copy-free across
// analyses through the MemoStore. Fields not covered by the backbone's
// key are left zero: pd on remote backbones (no remote term of
// Eq. (3)–(6) reads it) and the CPRO fields (pcb and the embedded
// cproEntry) on γ-depth backbones (read only with persistence enabled,
// which requests CPRO depth). d_mem and the slot size are read from the
// analyzer at evaluation time.
type termCurve struct {
	period taskmodel.Time
	pd     taskmodel.Time
	md     int64
	mdr    int64
	// gamma is γ_{i,j,core(j)} at the backbone's cutoff.
	gamma int64
	// pcb caches |PCB_j| for the FullReload CPRO bound; cproEntry holds
	// the Eq. (14) CPRO terms. CPRO depth only.
	pcb int64
	cproEntry
}

// curveDepth is the slot depth a request needs: γ depth, or CPRO depth
// (a superset) when persistence is on.
func curveDepth(persist bool) uint8 {
	if persist {
		return 2
	}
	return 1
}

// buildBackbone materializes the backbone of refs, a run of core y's
// tasks starting at the front of byCore[y], from the slot columns at
// level ii's cutoff k on y: one termCurve per task, in byCore order,
// the terms past k (the lp tail of a remote backbone) reading γ = 0 and
// their own CPRO entries. withPD fills pd, which only same-core terms
// read; the remote content key omits it, so PD edits keep remote
// backbones. It is the one body of the local build and the memoized
// compute, so store-served and per-analysis backbones are
// bit-identical; counted as a genuine cold build (CtrCurveBuilds).
func (tb *tables) buildBackbone(ii, y int, refs []taskRef, withPD, persist bool, obs *telemetry.Observer) []termCurve {
	k := tb.hepCount(ii, y)
	if obs != nil {
		obs.Add(telemetry.CtrCurveBuilds, 1)
		if obs.Tracing() {
			defer obs.Span("curves core "+strconv.Itoa(y)+" cutoff "+strconv.Itoa(k), "curves").End()
		}
	}
	gamma := tb.gammaCol(ii, y, obs)
	var cpro, low []cproEntry
	if persist {
		cpro = tb.cproCol(y, k, obs)
		if len(refs) > k {
			low = tb.cproLowCol(y, k, obs)
		}
	}
	terms := carve(&tb.ar.terms, len(refs), 0)
	for pos, ref := range refs {
		tc := &terms[pos]
		tc.period = ref.t.Period
		if withPD {
			tc.pd = ref.t.PD
		}
		tc.md, tc.mdr = ref.t.MD, ref.t.MDr
		if pos < k {
			tc.gamma = gamma[pos]
		}
		if persist {
			tc.pcb = tb.pcb[ref.idx]
			if pos < k {
				tc.cproEntry = cpro[pos]
			} else {
				tc.cproEntry = low[pos-k]
			}
		}
	}
	return terms
}

// curveSame returns level ii's same-core curves — the processor
// preemption term of Eq. (19) and the BAS term of Eq. (1)/Lemma 1 over
// hp(i), in hp order (the summation order of the oracle's BAS in
// reference.go, kept identical so the engine reproduces its arithmetic
// exactly). They live in the slot of the level's own cutoff,
// materialized on first use — from the shared store when one is
// attached (keyed by content, so any analysis whose hp prefix matches
// reuses the backbone copy-free), locally otherwise. A backbone already
// materialized at sufficient depth is a warm hit (CtrCurveHits); a
// persist request against a γ-depth backbone re-materializes at CPRO
// depth under its own key, and cursors still holding the γ-depth slice
// stay valid — backbones are immutable once built.
func (tb *tables) curveSame(ii int, persist bool, obs *telemetry.Observer) []termCurve {
	y := tb.tasks[ii].Core
	k := tb.hepCount(ii, y)
	s := tb.slot(y, k)
	if s.sameDepth >= curveDepth(persist) {
		if obs != nil {
			obs.Add(telemetry.CtrCurveHits, 1)
		}
		return s.same
	}
	build := func() []termCurve { return tb.buildBackbone(ii, y, tb.hp(ii), true, persist, obs) }
	// k−1 = |hp|: priorities are unique, so the own-core hep prefix
	// contains exactly the hp tasks plus the level itself.
	if tb.memo != nil && k > 1 {
		s.same = tb.memo.getOrComputeCurve(tb.curveKey(y, k, sameCurveFlavor(persist)), obs, build)
	} else {
		s.same = build()
	}
	s.sameDepth = curveDepth(persist)
	return s.same
}

// curveRemote returns level ii's curves on remote core y: hep(i)∩Γ_y
// and lp(i)∩Γ_y, the BAO and BAO_low terms of Eq. (3)–(7). Both are
// views of one backbone, byCore[y] in order, held by the slot of the
// level's cutoff k on y and split at k; materialized like curveSame.
func (tb *tables) curveRemote(ii, y int, persist bool, obs *telemetry.Observer) (remote, low []termCurve) {
	k, shape := tb.hepCount(ii, y), tb.gammaFlavor(ii, y)
	s := tb.slot(y, k)
	if s.remoteDepth[shape] >= curveDepth(persist) {
		if obs != nil {
			obs.Add(telemetry.CtrCurveHits, 1)
		}
	} else {
		build := func() []termCurve { return tb.buildBackbone(ii, y, tb.byCore[y], false, persist, obs) }
		if tb.memo != nil && len(tb.byCore[y]) > 0 {
			s.remote[shape] = tb.memo.getOrComputeCurve(tb.curveKey(y, k, remoteCurveFlavor(shape, persist)), obs, build)
		} else {
			s.remote[shape] = build()
		}
		s.remoteDepth[shape] = curveDepth(persist)
	}
	terms := s.remote[shape]
	return terms[:k:k], terms[k:]
}

// sameCursor tracks one same-core task's pair of step functions: the
// processor preemption term ⌈t/T_j⌉·PD_j and the BAS access term.
// Both share the release breakpoints of τ_j, so one cursor serves
// both.
type sameCursor struct {
	tc      *termCurve
	procVal taskmodel.Time
	basVal  int64
	// next is the smallest t at which either value may change.
	next taskmodel.Time
}

// remoteCursor tracks one remote task's W + W_cout step function at
// the cursor's analysis level.
type remoteCursor struct {
	tc *termCurve
	// c is R_l − (MD_l+γ)·d_mem, the response-time-dependent offset of
	// Eq. (6), fixed for the duration of one inner fixed point.
	c    int64
	val  int64
	next taskmodel.Time
	// core indexes the per-core sum the value feeds; low selects the
	// BAO_low sum (FP blocking) over the BAO sum.
	core int32
	low  bool
	// idx is the interfering task's table index for fpRemote — kept on
	// the cursor because shared backbones carry no task identity.
	idx int32
}

// fpState is one analyzed task's cursor state, kept per level for the
// analyzer's lifetime. Because the outer loop is monotone — each
// re-analysis of a task resumes from its own previous fixed point, and
// remote estimates only grow — the cursors stay valid across
// ResponseTime calls: a re-analysis triggered by a changed remote
// estimate re-evaluates only the remote terms whose R_l actually moved
// (the markDependents invariant made concrete). All slices are reused,
// so the inner fixed point allocates nothing once the analyzer is warm
// (pinned by the allocs regression test).
type fpState struct {
	same   []sameCursor
	remote []remoteCursor
	baoSum []int64
	lowSum []int64
	// charged is fpTerms' per-core remote term, after the arbiter's clamp.
	charged []int64
	procSum taskmodel.Time
	basSum  int64
	// minNext is the smallest next-breakpoint over all cursors: below
	// it, every term — and hence f — is provably constant.
	minNext taskmodel.Time
	// at is the iterate the cursor values are currently valid at; a
	// reset whose seed equals at reuses them wholesale.
	at    taskmodel.Time
	valid bool
}

// persistentDemandCurve is persistence.PersistentDemandWindow (Eq. 10 +
// Eq. 14, clamped by the oblivious bound) evaluated from curve
// constants: the same arithmetic, term for term, as the oracle's call,
// so both produce bit-identical values.
func (a *Analyzer) persistentDemandCurve(tc *termCurve, n int64, t taskmodel.Time) int64 {
	if n <= 0 {
		return 0
	}
	plain := n * tc.md
	mdhat := n*tc.mdr + tc.pcb
	if plain < mdhat {
		mdhat = plain
	}
	aware := mdhat + a.rhoCurve(tc, n, t)
	if aware < plain {
		return aware
	}
	return plain
}

// rhoCurve is persistence.RhoHatWindow, ρ̂_{j,i,x}(n) of Eq. (14) and
// its variants, evaluated from curve constants.
func (a *Analyzer) rhoCurve(tc *termCurve, n int64, t taskmodel.Time) int64 {
	if n <= 1 {
		return 0
	}
	switch a.Cfg.CPRO {
	case persistence.Union:
		return (n - 1) * tc.unionOverlap
	case persistence.MultisetUnion:
		union := (n - 1) * tc.unionOverlap
		var multi int64
		for _, ev := range tc.evictors {
			// Jobs of the evictor in the window, +1 for a carry-in job.
			jobs := int64(t)/int64(ev.Period) + 2
			if jobs > n-1 {
				jobs = n - 1
			}
			multi += jobs * ev.Overlap
		}
		return min64(multi, union)
	case persistence.FullReload:
		return (n - 1) * tc.pcb
	case persistence.None:
		return 0
	default:
		panic(fmt.Sprintf("core: unknown CPRO approach %d", int(a.Cfg.CPRO)))
	}
}

// evictorBreak returns the smallest evictor-release multiple above t,
// the only t-dependence of the multiset CPRO bound. Other CPRO
// approaches depend on t solely through the job count n, whose steps
// the callers account for separately.
func (a *Analyzer) evictorBreak(tc *termCurve, t, next taskmodel.Time) taskmodel.Time {
	if !a.Cfg.Persistence || a.Cfg.CPRO != persistence.MultisetUnion {
		return next
	}
	for _, ev := range tc.evictors {
		if bp := (int64(t)/int64(ev.Period) + 1) * int64(ev.Period); bp < next {
			next = bp
		}
	}
	return next
}

// sameEval evaluates one same-core curve at t: the processor term, the
// BAS summand (matching the oracle's BAS exactly) and the next
// breakpoint.
func (a *Analyzer) sameEval(tc *termCurve, t taskmodel.Time) (procVal taskmodel.Time, basVal int64, next taskmodel.Time) {
	e := releasesBy(int64(t), int64(tc.period))
	procVal = taskmodel.Time(e) * tc.pd
	if a.Cfg.Persistence {
		basVal = a.persistentDemandCurve(tc, e, t) + e*tc.gamma
	} else {
		basVal = e*tc.md + e*tc.gamma
	}
	// ⌈t/T⌉ holds its value up to and including e·T; it steps at
	// e·T + 1 (times are integral).
	next = e*int64(tc.period) + 1
	next = a.evictorBreak(tc, t, next)
	if next <= t {
		next = t + 1 // defensive: cursors must always move forward
	}
	return procVal, basVal, next
}

// remoteEval evaluates one remote curve at t, matching the oracle's
// contrib exactly: the n(t) job count of Eq. (6), the W demand term and the
// carry-out ramp W_cout of Eq. (5), plus the next breakpoint (job
// release, d_mem ramp step, or evictor release).
func (a *Analyzer) remoteEval(tc *termCurve, c int64, t taskmodel.Time) (val int64, next taskmodel.Time) {
	dmem := int64(a.TS.Platform.DMem)
	period := int64(tc.period)
	num := int64(t) + c
	n := releasedJobs(num, period)
	var w int64
	if a.Cfg.Persistence {
		w = a.persistentDemandCurve(tc, n, t) + n*tc.gamma
	} else {
		w = n * (tc.md + tc.gamma)
	}
	rem := num - n*period
	wc, remNext := carryOut(rem, dmem, tc.md+tc.gamma)
	val = w + wc

	// Next job-release step of the (clamped) n.
	next = taskmodel.Time((n+1)*period - c)
	// Next carry-out ramp step, unless the ramp is saturated.
	if remNext > 0 {
		if bp := t + taskmodel.Time(remNext-rem); bp < next {
			next = bp
		}
	}
	next = a.evictorBreak(tc, t, next)
	if next <= t {
		next = t + 1
	}
	return val, next
}

// The three functions below are the kernel's integer divisions with
// their common cases decided by comparison (DESIGN.md §7, "Division-free
// breakpoints"). Each returns exactly what its floorDiv/ceilDiv
// definition returns, and no comparison can wrap where that division
// did not; TestKernelFastPathsMatchDivision holds each to its division.

// releasesBy is ⌈t/T⌉ for T > 0, the number of releases of a same-core
// task in a window of length t. A window no longer than one period —
// the common case on paper-shaped sets — holds exactly one.
func releasesBy(t, period int64) int64 {
	if t > 0 {
		if t <= period {
			return 1
		}
		return (t-1)/period + 1
	}
	return ceilDiv(t, period)
}

// releasedJobs is max(0, ⌊num/T⌋) for T > 0, the clamped job count n
// of Eq. (6). Below one period it is 0 and below two it is 1; num−T
// cannot wrap once num ≥ T > 0.
func releasedJobs(num, period int64) int64 {
	if num < period {
		return 0
	}
	if num-period < period {
		return 1
	}
	return num / period
}

// carryOut is the carry-out ramp of Eq. (5) at offset rem past the last
// full job: wc = ⌈rem/d_mem⌉ clamped to [0, wcCap], and the offset at
// which that value next steps, remNext, or 0 once the ramp is saturated
// (the ceiling has reached wcCap). The ceiling advances at
// rem = wc·d_mem + 1, and first turns positive at rem = 1. wcCap ≥ 0
// and d_mem ≥ 1 (validated MD, γ and platform).
func carryOut(rem, dmem, wcCap int64) (wc, remNext int64) {
	if rem <= 0 {
		// The ceiling is ≤ 0 and clamps to 0; it lies below the cap
		// unless the cap is 0 and the ceiling is exactly 0.
		if wcCap > 0 || rem <= -dmem {
			return 0, 1
		}
		return 0, 0
	}
	if rampSaturated(rem, dmem, wcCap) {
		return wcCap, 0
	}
	wc = (rem-1)/dmem + 1
	return wc, wc*dmem + 1
}

// rampSaturated reports ⌈rem/d_mem⌉ ≥ wcCap for rem > 0, that is
// rem > (wcCap−1)·d_mem. The product is taken in 128 bits: a product at
// or above 2⁶³ exceeds every rem, where a 64-bit one would wrap.
func rampSaturated(rem, dmem, wcCap int64) bool {
	if wcCap <= 0 {
		return true
	}
	hi, lo := bits.Mul64(uint64(wcCap-1), uint64(dmem))
	return hi == 0 && lo < uint64(rem)
}

// fpRemote reads the current remote estimate feeding one remote
// cursor: the dense mirror while Run is live, the public map (keyed by
// the task's priority) otherwise.
func (a *Analyzer) fpRemote(cur *remoteCursor) taskmodel.Time {
	if a.rdLive {
		return a.rd[cur.idx]
	}
	return a.R[a.tab.tasks[cur.idx].Priority]
}

// fpReset prepares the cursors for the priority-level row ii at the
// starting iterate r, setting a.fp to the level's persistent state.
// Remote curves are read at level ii for the FP bus and at the
// lowest-priority level for RR, Regulated and ParAware (their BAT
// formulas charge remote demand at the bottom level, like Eq. 8);
// TDMA and Perfect need none.
//
// When the level was analyzed before and the seed equals the iterate
// its cursors stopped at — the steady state of the outer loop, whose
// seeds resume from the task's own previous fixed point — the cursors
// are reused: only remote terms whose R_l offset moved are
// re-evaluated. Their values are pure functions of (c, t), so the
// refreshed state is identical to a full rebuild.
func (a *Analyzer) fpReset(ii int, core int, r taskmodel.Time) {
	if a.fps == nil {
		a.fps = make([]fpState, len(a.tab.tasks))
	}
	s := &a.fps[ii]
	a.fp = s
	dmem := int64(a.TS.Platform.DMem)
	if s.valid && s.at == r {
		var refreshed int64
		changed := false
		for k := range s.remote {
			cur := &s.remote[k]
			tc := cur.tc
			c := int64(a.fpRemote(cur)) - (tc.md+tc.gamma)*dmem
			if c == cur.c {
				continue
			}
			val, next := a.remoteEval(tc, c, r)
			if cur.low {
				s.lowSum[cur.core] += val - cur.val
			} else {
				s.baoSum[cur.core] += val - cur.val
			}
			cur.c, cur.val, cur.next = c, val, next
			refreshed++
			changed = true
		}
		if a.obs != nil {
			a.obs.Add(telemetry.CtrCursorResumes, 1)
			a.obs.Add(telemetry.CtrCursorRemoteRefreshes, refreshed)
		}
		if changed {
			minNext := maxTime
			for k := range s.same {
				if s.same[k].next < minNext {
					minNext = s.same[k].next
				}
			}
			for k := range s.remote {
				if s.remote[k].next < minNext {
					minNext = s.remote[k].next
				}
			}
			s.minNext = minNext
			a.clampRegNext(s, r)
		}
		return
	}

	if a.obs != nil {
		a.obs.Add(telemetry.CtrCursorRebuilds, 1)
	}
	persist := a.Cfg.Persistence
	s.procSum, s.basSum = 0, 0
	s.minNext = maxTime
	s.at = r
	s.valid = true

	same := a.tab.curveSame(ii, persist, a.obs)
	if cap(s.same) < len(same) {
		s.same = make([]sameCursor, 0, len(same))
	}
	s.same = s.same[:0]
	for k := range same {
		tc := &same[k]
		procVal, basVal, next := a.sameEval(tc, r)
		s.procSum += procVal
		s.basSum += basVal
		if next < s.minNext {
			s.minNext = next
		}
		s.same = append(s.same, sameCursor{tc: tc, procVal: procVal, basVal: basVal, next: next})
	}

	m := a.TS.Platform.NumCores
	if cap(s.baoSum) < m {
		s.baoSum = make([]int64, m)
		s.lowSum = make([]int64, m)
		s.charged = make([]int64, m)
	}
	s.baoSum = s.baoSum[:m]
	s.lowSum = s.lowSum[:m]
	s.charged = s.charged[:m]
	for y := 0; y < m; y++ {
		s.baoSum[y], s.lowSum[y] = 0, 0
	}
	s.remote = s.remote[:0]
	a.clampRegNext(s, r)
	switch a.Cfg.Arbiter {
	case FP, RR, Regulated, ParAware:
	default:
		return
	}
	if cap(s.remote) < len(a.tab.tasks) {
		s.remote = make([]remoteCursor, 0, len(a.tab.tasks))
	}

	// idxs aligns with the backbone terms: hep(level)∩Γ_y is a prefix of
	// byCore[y] and lp(level)∩Γ_y the matching suffix, so the tables'
	// per-core index column supplies the task identity a shared backbone
	// cannot carry.
	addRemote := func(terms []termCurve, idxs []int32, y int, low bool) {
		for k := range terms {
			tc := &terms[k]
			jj := idxs[k]
			cur := remoteCursor{tc: tc, core: int32(y), low: low, idx: jj}
			cur.c = int64(a.fpRemote(&cur)) - (tc.md+tc.gamma)*dmem
			val, next := a.remoteEval(tc, cur.c, r)
			cur.val, cur.next = val, next
			if low {
				s.lowSum[y] += val
			} else {
				s.baoSum[y] += val
			}
			if next < s.minNext {
				s.minNext = next
			}
			s.remote = append(s.remote, cur)
		}
	}
	level := ii
	if a.Cfg.Arbiter != FP {
		// RR, Regulated and ParAware all read remote demand at the
		// lowest priority level, the last of the priority-ascending
		// table.
		level = len(a.tab.tasks) - 1
	}
	for y := 0; y < m; y++ {
		if y == core {
			continue
		}
		remote, low := a.tab.curveRemote(level, y, persist, a.obs)
		idxs := a.tab.coreIdx[y]
		addRemote(remote, idxs[:len(remote)], y, false)
		if a.Cfg.Arbiter == FP {
			addRemote(low, idxs[len(remote):], y, true)
		}
	}
}

// clampRegNext folds the regulated bus's budget breakpoint into the
// cursor minimum: regCapAt steps at t = k·P+1 independently of every
// task curve, so the breakpoint jump must not skip across one — the
// jump's premise is that f is constant on (r, next], and for Regulated
// f also reads the cap. The clamp may fire early (recomputing an
// unchanged f), never late, preserving the naive iterate chain.
func (a *Analyzer) clampRegNext(s *fpState, t taskmodel.Time) {
	if a.Cfg.Arbiter != Regulated {
		return
	}
	p := int64(a.TS.Platform.RegPeriod)
	if bp := taskmodel.Time(ceilDiv(int64(t), p)*p + 1); bp < s.minNext {
		s.minNext = bp
	}
}

// fpAdvance moves every cursor whose breakpoint was crossed forward to
// t, updating the running sums in place. Cursors not yet at their
// breakpoint keep their value — that is the entire saving.
func (a *Analyzer) fpAdvance(t taskmodel.Time) {
	s := a.fp
	s.at = t
	if t < s.minNext {
		return
	}
	var snaps int64
	minNext := maxTime
	for k := range s.same {
		cur := &s.same[k]
		if cur.next <= t {
			procVal, basVal, next := a.sameEval(cur.tc, t)
			s.procSum += procVal - cur.procVal
			s.basSum += basVal - cur.basVal
			cur.procVal, cur.basVal, cur.next = procVal, basVal, next
			snaps++
		}
		if cur.next < minNext {
			minNext = cur.next
		}
	}
	for k := range s.remote {
		cur := &s.remote[k]
		if cur.next <= t {
			val, next := a.remoteEval(cur.tc, cur.c, t)
			if cur.low {
				s.lowSum[cur.core] += val - cur.val
			} else {
				s.baoSum[cur.core] += val - cur.val
			}
			cur.val, cur.next = val, next
			snaps++
		}
		if cur.next < minNext {
			minNext = cur.next
		}
	}
	s.minNext = minNext
	a.clampRegNext(s, t)
	if a.obs != nil {
		a.obs.Add(telemetry.CtrBreakpointSnaps, snaps)
	}
}

// batTerms is BAT split into the additive terms its arbiter charges:
//
//	bat = bas + slotWait + Σ_y remote[y] + blocking
//
// remote[y] is the demand charged for remote core y after the
// arbiter's per-core clamp — zero on the task's own core, whose sum
// fpReset leaves empty. It is nil for TDMA and Perfect, which charge no
// remote demand, and otherwise aliases the level's cursor state, valid
// until the cursors next move.
type batTerms struct {
	bas, slotWait, blocking, bat int64
	remote                       []int64
}

// fpTerms decomposes BAT at the cursors' iterate, combining the running
// sums as the oracle's BAT does from its recomputed terms: Eq. (7) for
// FP, Eq. (8) for RR, Eq. (9) for TDMA, own accesses only for Perfect,
// and the per-core clamps of Regulated and ParAware. It is the engine's
// one per-arbiter combine: the fixed point reads bat, and Explain
// reports the terms and, per traced iterate, their argmax
// (dominantTerm).
func (a *Analyzer) fpTerms(md int64, hasLP bool) batTerms {
	s := a.fp
	bt := batTerms{bas: md + s.basSum}
	if a.Cfg.Arbiter == Perfect {
		bt.bat = bt.bas
		return bt
	}
	if hasLP {
		bt.blocking = 1
	}
	clamp := int64(math.MaxInt64)
	switch a.Cfg.Arbiter {
	case TDMA:
		bt.slotWait = int64(a.TS.Platform.NumCores-1) * int64(a.TS.Platform.SlotSize) * bt.bas
		bt.bat = bt.bas + bt.slotWait + bt.blocking
		return bt
	case FP:
		var low int64
		for _, v := range s.lowSum {
			low += v
		}
		bt.blocking += min64(bt.bas, low)
	case RR:
		clamp = int64(a.TS.Platform.SlotSize) * bt.bas
	case Regulated:
		// s.at is the iterate the sums are valid at — every caller
		// evaluates the terms at the cursors' own iterate — so the budget
		// cap is evaluated at exactly the t the oracle's BAT would use.
		clamp = regCapAt(a.TS.Platform, s.at) + bt.bas
	case ParAware:
		clamp = bt.bas
	default:
		panic(fmt.Sprintf("core: unknown arbiter %d", int(a.Cfg.Arbiter)))
	}
	bt.bat = bt.bas + bt.blocking
	for y, v := range s.baoSum {
		v = min64(v, clamp)
		s.charged[y] = v
		bt.bat += v
	}
	bt.remote = s.charged
	return bt
}
