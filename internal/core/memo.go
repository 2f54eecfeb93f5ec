package core

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/crpd"
	"repro/internal/lru"
	"repro/internal/telemetry"
)

// Content-addressed table memoization.
//
// The interference tables (tables.go) are rebuilt from scratch for
// every analysis, even though near-duplicate requests — a sweep that
// perturbs one task, a delta request editing one parameter — share
// almost all of the underlying set arithmetic. This layer keys the
// table columns by a digest of the exact task fields they depend on,
// so any request (concurrent or later) that contains the same column
// reuses it bit for bit.
//
// Unit of sharing. The tables already hold every column in the slot of
// (core y, cutoff k): a level reads core y's tasks only through the
// priority-ordered prefix ending at its cutoff, the k = |Γ_y ∩ hep(i)|
// first tasks of byCore[y]. A slot accessor with a store attached
// fetches its column under that prefix's content key instead of
// computing it, and every quantity the tables cache is a pure function
// of the prefix:
//
//   - γ_{i,j,y} (every crpd.Approach) reads the UCB/ECB sets of the
//     prefix tasks — the evicting union ∪ ECB over hep(j) ∩ Γ_y and the
//     affected tasks' UCBs are all drawn from it. The level priority i
//     enters only through the cutoff, with one exception: under
//     crpd.ECBOnly the last prefix position charges 0 when the analyzed
//     task is itself that position (it cannot preempt its own level)
//     but |ECB_j| when the level lives on another core. A selfLast bit
//     in the key separates the two shapes; for every other approach the
//     last position is 0 in both shapes and the bit is normalized away.
//   - The CPRO terms (unionOverlap and the evictor multiset of Eq. 14)
//     read the ECB/PCB sets and periods of the prefix tasks, and do not
//     depend on the CRPD approach at all — the persist keys omit it, so
//     tables built for different approaches share the CPRO columns.
//   - A lower-priority task's CPRO entry at the level (BAO_low) reads
//     the prefix plus that task's own ECB/PCB/Period; it is keyed by
//     the prefix key chained with the task's digest.
//
// Per-task digests cover exactly the fields above (gamma: UCB, ECB;
// persist: ECB, PCB, Period), written through the canonical.go
// hashWriter so the sub-keys inherit its collision-free field framing.
// Everything CanonicalKey normalizes away for the whole request is
// *absent* here rather than normalized: the arbiter, the persistence
// switch, the CPRO approach and MaxOuterIterations never reach the
// table values, and the cache geometry enters only through the sets'
// index contents (associativity — the Ways() normalization — and the
// block size affect no cached term). Names, priorities, cores,
// deadlines and the execution/demand scalars (PD, MD, MDr) are
// likewise excluded, so edits to them invalidate no column. Priority
// and core placement still shape the columns — through the prefix
// membership and order the digest sequence encodes — not through
// their numeric values.
//
// The store is safe for concurrent use and computes each column once:
// the first requester becomes the leader and computes while followers
// of the same key block on a done channel. A leader that panics drops
// its entry and re-panics; released followers recompute locally
// without publishing. Published columns are immutable — a hit's slices
// are aliased, never copied, into the slot that reads them — and the
// done-channel close provides the happens-before edge that makes the
// aliasing race-free.

// memoKey is a content-addressed column identity (SHA-256).
type memoKey [sha256.Size]byte

// memoColumn is one published column: the γ values and/or CPRO terms
// of a prefix, indexed by prefix position. A γ column leaves cpro nil
// and vice versa; a single lower-priority entry is a CPRO column of
// length one. Immutable after publication.
type memoColumn struct {
	gamma []int64
	cpro  []cproEntry
}

// curveColumn is one published curve backbone: an immutable termCurve
// slice shared copy-free by every analysis whose (core, cutoff) slot
// has the same content key. Remote backbones store hep ++ lp
// contiguously; the consumer splits at its own cutoff, which the key
// covers.
type curveColumn struct {
	terms []termCurve
}

// memoCounterSet names the telemetry family one kind of store entry
// reports on, so table columns and curve backbones stay separately
// observable (core.memo_* vs core.curve_memo_*) while sharing the
// store's capacity, sharding and compute-once machinery.
type memoCounterSet struct {
	hits, waits, misses, evictions telemetry.Counter
}

var (
	columnCounters = &memoCounterSet{
		hits: telemetry.CtrMemoHits, waits: telemetry.CtrMemoWaits,
		misses: telemetry.CtrMemoMisses, evictions: telemetry.CtrMemoEvictions,
	}
	curveCounters = &memoCounterSet{
		hits: telemetry.CtrCurveMemoHits, waits: telemetry.CtrCurveMemoWaits,
		misses: telemetry.CtrCurveMemoMisses, evictions: telemetry.CtrCurveMemoEvictions,
	}
)

const memoShards = 16

type memoEntry struct {
	// val is valid only after done is closed; nil then means the
	// leader's compute failed and the entry was withdrawn. It holds a
	// *memoColumn or a *curveColumn; ctrs attributes the entry's
	// eviction to the matching counter family.
	val  any
	ctrs *memoCounterSet
	done chan struct{}
	// ready flips to true (release) after val is published, letting the
	// hit path skip the done-channel select (acquire on Load). It stays
	// false on withdraw, so readers that miss the flag still take the
	// channel edge and see the nil val there.
	ready atomic.Bool
}

type memoShard struct {
	mu      sync.Mutex
	entries *lru.LRU[memoKey, *memoEntry]
}

// MemoStore is a bounded, sharded, concurrency-safe store of
// content-addressed table columns, shared across analyses (and, via
// BatchOptions.Memo, across requests) so that near-duplicate task sets
// recompute only the columns their edits actually invalidate.
type MemoStore struct {
	shards [memoShards]memoShard
	// perCap bounds each shard's entry count (total/memoShards).
	perCap int
}

// NewMemoStore returns a store bounded to roughly maxEntries columns
// (rounded up to the shard granularity), evicted LRU per shard.
// maxEntries <= 0 selects a default sized for sweep workloads.
func NewMemoStore(maxEntries int) *MemoStore {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	perCap := (maxEntries + memoShards - 1) / memoShards
	if perCap < 1 {
		perCap = 1
	}
	m := &MemoStore{perCap: perCap}
	for i := range m.shards {
		m.shards[i].entries = lru.New[memoKey, *memoEntry](perCap)
	}
	return m
}

// getOrCompute returns the value for key, computing and publishing it
// via compute if absent. Concurrent callers of the same key compute it
// once: followers block until the leader publishes. obs (nil-safe)
// receives the ctrs counter family: a hit for a published value, a
// wait for joining an in-flight computation, a miss for every actual
// compute invocation, an eviction per capacity drop (attributed to the
// dropped entry's own family).
func (m *MemoStore) getOrCompute(key memoKey, ctrs *memoCounterSet, obs *telemetry.Observer, compute func() any) any {
	sh := &m.shards[key[0]&(memoShards-1)]
	sh.mu.Lock()
	// LRU order only matters once the shard is under capacity pressure;
	// below half-full every entry survives regardless, so the list
	// shuffle is pure overhead on the hot hit path.
	var ent *memoEntry
	var ok bool
	if sh.entries.Len()*2 > m.perCap {
		ent, ok = sh.entries.Get(key)
	} else {
		ent, ok = sh.entries.Peek(key)
	}
	if ok {
		sh.mu.Unlock()
		if ent.ready.Load() {
			obs.Add(ctrs.hits, 1)
			return ent.val
		}
		select {
		case <-ent.done:
			obs.Add(ctrs.hits, 1)
		default:
			obs.Add(ctrs.waits, 1)
			<-ent.done
		}
		if ent.val != nil {
			return ent.val
		}
		// The leader failed and withdrew the entry; compute locally
		// without publishing (a later request elects a fresh leader).
		obs.Add(ctrs.misses, 1)
		return compute()
	}
	ent = &memoEntry{ctrs: ctrs, done: make(chan struct{})}
	if dropped, evicted := sh.entries.Add(key, ent); evicted {
		obs.Add(dropped.ctrs.evictions, 1)
	}
	sh.mu.Unlock()

	obs.Add(ctrs.misses, 1)
	var val any
	defer func() {
		// Publish-or-withdraw runs even when compute panics: val stays
		// nil, the entry is removed so the key is not poisoned, and the
		// close releases any followers before the panic propagates.
		ent.val = val
		if val != nil {
			ent.ready.Store(true)
		}
		if val == nil {
			sh.mu.Lock()
			if cur, ok := sh.entries.Peek(key); ok && cur == ent {
				sh.entries.Remove(key)
			}
			sh.mu.Unlock()
		}
		close(ent.done)
	}()
	val = compute()
	return val
}

// getOrComputeColumn is getOrCompute specialized to table columns,
// reporting on the core.memo_* family. A nil compute result stays an
// untyped nil so the withdraw path sees it.
func (m *MemoStore) getOrComputeColumn(key memoKey, obs *telemetry.Observer, compute func() *memoColumn) *memoColumn {
	v := m.getOrCompute(key, columnCounters, obs, func() any {
		if col := compute(); col != nil {
			return col
		}
		return nil
	})
	col, _ := v.(*memoColumn)
	return col
}

// getOrComputeCurve is getOrCompute specialized to curve backbones,
// reporting on the core.curve_memo_* family. The returned slice is
// shared and must not be mutated.
func (m *MemoStore) getOrComputeCurve(key memoKey, obs *telemetry.Observer, compute func() []termCurve) []termCurve {
	col := m.getOrCompute(key, curveCounters, obs, func() any {
		return &curveColumn{terms: compute()}
	}).(*curveColumn)
	return col.terms
}

// Len reports the number of resident columns (racy snapshot; tests
// and capacity diagnostics only).
func (m *MemoStore) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.entries.Len()
		sh.mu.Unlock()
	}
	return n
}

// setMemo attaches the shared column store. Must be called before the
// first analysis touches the tables.
func (tb *tables) setMemo(m *MemoStore) { tb.memo = m }

// digests lazily computes the per-task field digests the column keys
// are assembled from. One pass per tables; the sets are hashed via
// their raw bit words (setWords), so the cost is linear in the cache
// geometry rather than the footprint's population count.
//
// The curve-backbone keys need the per-task scalars too (PD/MD/MDr/
// Period for same-core curves; PD excluded for remote ones, since no
// remote term of Eq. (3)–(6) reads it — which is exactly what keeps
// remote backbones alive across the classic one-task-PD sweep). Those
// are fixed-width fields, so curveKey writes them directly instead of
// paying two more SHA-256 rounds per task here.
func (tb *tables) digests() {
	if tb.gammaDig != nil {
		return
	}
	tb.gammaDig = make([]memoKey, len(tb.tasks))
	tb.persistDig = make([]memoKey, len(tb.tasks))
	for i, t := range tb.tasks {
		w := tb.keyWriter()
		w.str("buscon/memo/task-gamma/v3")
		w.setWordsSparse(t.UCB)
		w.setWordsSparse(t.ECB)
		w.h.Sum(tb.gammaDig[i][:0])

		w = tb.keyWriter()
		w.str("buscon/memo/task-persist/v3")
		w.setWordsSparse(t.ECB)
		w.setWordsSparse(t.PCB)
		w.i64(int64(t.Period))
		w.h.Sum(tb.persistDig[i][:0])
	}
}

// colKey flavors, part of the cached-key identity. The first
// numChainFlavors are Merkle chains cached densely per core in the
// tables' key arena (chainSlot); the curve* flavors key whole backbone
// materializations one level up (see curveKey).
const (
	colGamma = iota
	colGammaSelfLast
	colPersist
	// chain* flavors cache the running scalar hashes the curve keys
	// chain (scalarChain); they are intermediate values, never store
	// keys themselves.
	chainScalarSame
	chainScalarRemote
	chainLPTail
	chainLPTailPersist
	numChainFlavors
	// curveSameKey keys a same-core backbone (hp terms) at γ depth;
	// curveSamePersistKey the same prefix at CPRO depth.
	curveSameKey
	curveSamePersistKey
	// curveRemoteKey / curveRemoteSelfKey key a remote backbone
	// (hep ++ lp terms of one core) at γ depth, split by the chained γ
	// column's selfLast shape; the *Persist variants add CPRO depth.
	curveRemoteKey
	curveRemoteSelfKey
	curveRemotePersistKey
	curveRemoteSelfPersistKey
)

// chainSlot returns core y's dense cache line for one chain flavor —
// one memoKey per cutoff 0..len(byCore[y]) — plus its fill watermark.
// The arena is one allocation for all cores and flavors; watermarks
// start at -1 (nothing filled). Prefix flavors fill upward and read the
// watermark as the highest valid cutoff; the lp-tail suffix flavors
// fill downward and read it as the lowest (with -1 meaning empty).
func (tb *tables) chainSlot(y, flavor int) ([]memoKey, *int) {
	if tb.chainKeys == nil {
		tb.chainKeys = make([]memoKey, numChainFlavors*(len(tb.tasks)+len(tb.byCore)))
		tb.chainWM = make([]int, numChainFlavors*len(tb.byCore))
		for i := range tb.chainWM {
			tb.chainWM[i] = -1
		}
	}
	stride := len(tb.byCore[y]) + 1
	base := numChainFlavors*(tb.coreOff[y]+y) + flavor*stride
	return tb.chainKeys[base : base+stride], &tb.chainWM[y*numChainFlavors+flavor]
}

// keyWriter returns the tables' reusable hash writer, reset: key
// assembly runs thousands of SHA rounds per build and a per-call
// sha256.New would put every one of them on the allocator.
func (tb *tables) keyWriter() *hashWriter {
	if tb.kw.h == nil {
		tb.kw.h = sha256.New()
	} else {
		tb.kw.h.Reset()
	}
	return &tb.kw
}

// colKey returns (building and caching on first use) the
// content-addressed key of core y's column at cutoff k under the given
// flavor. Keys are Merkle-chained — each cutoff hashes the previous
// cutoff's key plus the one digest the prefix grew by — so a tables
// pays O(1) SHA-256 rounds per (core, cutoff) instead of re-hashing
// the whole O(k) digest sequence. Order still matters (the running
// evicting unions and affected-task sets are positional) and the chain
// preserves it: two distinct digest sequences collide only through a
// SHA-256 collision, link by link. Links are cached densely per core
// (chainSlot) and missing ranges filled iteratively from the watermark.
func (tb *tables) colKey(y, k, flavor int) memoKey {
	ks, wm := tb.chainSlot(y, flavor)
	if *wm >= k {
		return ks[k]
	}
	tb.digests()
	dig := tb.gammaDig
	if flavor == colPersist {
		dig = tb.persistDig
	}
	refs := tb.byCore[y]
	for j := *wm + 1; j <= k; j++ {
		w := tb.keyWriter()
		if flavor == colPersist {
			w.str("buscon/memo/persist-col/v2")
		} else {
			w.str("buscon/memo/gamma-col/v2")
			w.i64(int64(tb.crpd))
			w.boolean(flavor == colGammaSelfLast)
		}
		w.u64(uint64(j))
		if j > 0 {
			w.h.Write(ks[j-1][:])
			w.h.Write(dig[refs[j-1].idx][:])
		}
		w.h.Sum(ks[j][:0])
	}
	*wm = k
	return ks[k]
}

// scalarChain returns the cached running hash of the per-task scalars
// a curve key covers: prefix chains over byCore[y][:j] (same-core
// curves read PD/MD/MDr/Period; remote ones MD/MDr/Period — PD stays
// out, which is exactly what keeps remote backbones alive across a
// one-task-PD sweep) and suffix chains over the lp tail byCore[y][j:]
// (plus each tail task's persist digest at CPRO depth, covering its
// own PCB against the prefix union). Chaining makes every link O(1)
// SHA work, mirroring colKey; links live in the same dense arena.
func (tb *tables) scalarChain(y, j, flavor int) memoKey {
	ks, wm := tb.chainSlot(y, flavor)
	refs := tb.byCore[y]
	switch flavor {
	case chainScalarSame, chainScalarRemote:
		if *wm >= j {
			return ks[j]
		}
		for i := *wm + 1; i <= j; i++ {
			w := tb.keyWriter()
			if flavor == chainScalarSame {
				w.str("buscon/memo/scalar-same/v1")
			} else {
				w.str("buscon/memo/scalar-remote/v1")
			}
			if i > 0 {
				ref := refs[i-1]
				w.h.Write(ks[i-1][:])
				if flavor == chainScalarSame {
					w.i64(int64(ref.t.PD))
				}
				w.i64(ref.t.MD)
				w.i64(ref.t.MDr)
				w.i64(int64(ref.t.Period))
			}
			w.h.Sum(ks[i][:0])
		}
		*wm = j
		return ks[j]
	default: // chainLPTail, chainLPTailPersist: suffix, filled downward
		lo := *wm
		if lo == -1 {
			lo = len(refs) + 1
		}
		if lo <= j {
			return ks[j]
		}
		if flavor == chainLPTailPersist {
			tb.digests()
		}
		for i := lo - 1; i >= j; i-- {
			w := tb.keyWriter()
			if flavor == chainLPTail {
				w.str("buscon/memo/lp-tail/v1")
			} else {
				w.str("buscon/memo/lp-tail-persist/v1")
			}
			if i < len(refs) {
				ref := refs[i]
				w.h.Write(ks[i+1][:])
				w.i64(ref.t.MD)
				w.i64(ref.t.MDr)
				w.i64(int64(ref.t.Period))
				if flavor == chainLPTailPersist {
					w.h.Write(tb.persistDig[ref.idx][:])
				}
			}
			w.h.Sum(ks[i][:0])
		}
		*wm = j
		return ks[j]
	}
}

// gammaFlavor returns the γ-column flavor for level ii on core y: the
// selfLast shape is only distinguishable under crpd.ECBOnly (see the
// package comment), so it is normalized away otherwise to maximize
// sharing.
func (tb *tables) gammaFlavor(ii, y int) int {
	if tb.crpd == crpd.ECBOnly && tb.tasks[ii].Core == y {
		return colGammaSelfLast
	}
	return colGamma
}

// sameCurveFlavor selects the backbone flavor of a same-core curve at
// the requested depth. Same-core backbones always sit on the analyzed
// task's own core, so the chained γ column's selfLast shape is a pure
// function of the CRPD approach (already part of the column key).
func sameCurveFlavor(persist bool) int {
	if persist {
		return curveSamePersistKey
	}
	return curveSameKey
}

// remoteCurveFlavor selects the backbone flavor of a remote curve: the
// γ-column shape (gammaFlavor) times the requested depth.
func remoteCurveFlavor(gflavor int, persist bool) int {
	if gflavor == colGammaSelfLast {
		if persist {
			return curveRemoteSelfPersistKey
		}
		return curveRemoteSelfKey
	}
	if persist {
		return curveRemotePersistKey
	}
	return curveRemoteKey
}

// curveKey returns the content-addressed identity of one curve
// backbone on core y at priority cutoff k. The key chains the column
// sub-keys the backbone's γ/CPRO fields are drawn from with the ordered
// scalar digests of exactly the tasks whose termCurve entries it holds:
//
//   - same-core (cutoff k = |hep ∩ Γ_y|, terms = the k−1 hp tasks):
//     γ column key [+ CPRO column key at persist depth] ++ the
//     PD/MD/MDr/Period scalars of the hp prefix. The CPRO column at
//     cutoff k covers the analyzed task itself too — required, since
//     it evicts its hp neighbours' persistent blocks.
//   - remote (terms = hep ++ lp of core y): γ column key [+ CPRO column
//     key] ++ the MD/MDr/Period scalars of the hep prefix and the lp
//     tail [+ persistDig of each lp task at persist depth, covering its
//     own PCB against the prefix union]. lp γ values are identically
//     zero, so no γ coverage is needed for the tail.
//
// Scalars excluded everywhere: d_mem and the slot size are read from
// the analyzer at evaluation time (the d_mem-sensitivity contract of
// tables.compatible), and priorities/cores/names/deadlines enter only
// through prefix membership and order, exactly as in the column keys.
func (tb *tables) curveKey(y, k, flavor int) memoKey {
	// Sub-keys are gathered before the final assembly: the chain fills
	// share the tables' one hash writer, so they must not run while the
	// curve key's own hash is in flight.
	var key memoKey
	switch flavor {
	case curveSameKey, curveSamePersistKey:
		persist := flavor == curveSamePersistKey
		gflavor := colGamma
		if tb.crpd == crpd.ECBOnly {
			gflavor = colGammaSelfLast
		}
		gk := tb.colKey(y, k, gflavor)
		var pk memoKey
		if persist {
			pk = tb.colKey(y, k, colPersist)
		}
		sc := tb.scalarChain(y, k-1, chainScalarSame)
		w := tb.keyWriter()
		w.str("buscon/memo/curve-same/v2")
		w.boolean(persist)
		w.h.Write(gk[:])
		if persist {
			w.h.Write(pk[:])
		}
		w.h.Write(sc[:])
		w.h.Sum(key[:0])
	default:
		persist := flavor == curveRemotePersistKey || flavor == curveRemoteSelfPersistKey
		gflavor := colGamma
		if flavor == curveRemoteSelfKey || flavor == curveRemoteSelfPersistKey {
			gflavor = colGammaSelfLast
		}
		gk := tb.colKey(y, k, gflavor)
		var pk memoKey
		if persist {
			pk = tb.colKey(y, k, colPersist)
		}
		sc := tb.scalarChain(y, k, chainScalarRemote)
		tailFlavor := chainLPTail
		if persist {
			tailFlavor = chainLPTailPersist
		}
		lt := tb.scalarChain(y, k, tailFlavor)
		w := tb.keyWriter()
		w.str("buscon/memo/curve-remote/v2")
		w.boolean(persist)
		w.h.Write(gk[:])
		if persist {
			w.h.Write(pk[:])
		}
		w.h.Write(sc[:])
		w.u64(uint64(len(tb.byCore[y]) - k))
		w.h.Write(lt[:])
		w.h.Sum(key[:0])
	}
	return key
}

// lpKey keys one lower-priority task's CPRO entry against core y's
// cutoff-k prefix: the prefix persist key chained with the task's own
// persist digest.
func (tb *tables) lpKey(y, k, jj int) memoKey {
	var pk memoKey
	if k > 0 {
		pk = tb.colKey(y, k, colPersist)
	} else {
		tb.digests()
	}
	w := tb.keyWriter()
	w.str("buscon/memo/persist-lp/v1")
	w.h.Write(pk[:])
	w.h.Write(tb.persistDig[jj][:])
	var key memoKey
	w.h.Sum(key[:0])
	return key
}
