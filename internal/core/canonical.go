package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/bits"

	"repro/internal/cacheset"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
)

// Request canonicalization for the serving layer (internal/server):
// an analysis request — one task set plus the configurations to
// evaluate it under — is reduced to a stable key so that result
// caching and in-flight coalescing recognize semantically identical
// requests regardless of how they were phrased on the wire.
//
// The key hashes the exact field bits of everything the analysis
// outcome depends on: the full platform geometry, every task parameter
// (including the name, which is echoed into results), and the
// configuration list in order. Fields the engine provably ignores are
// normalized first (see Config.canonical), so e.g. two requests
// differing only in the CPRO approach of a persistence-off
// configuration share one key, one cache slot and one computation.

// canonical returns the configuration with ignored and defaulted
// fields normalized to their effective values:
//
//   - MaxOuterIterations 0 is DefaultMaxOuterIterations;
//   - CPRO is ignored unless Persistence is set, so it is zeroed for
//     persistence-off configurations.
func (c Config) canonical() Config {
	if c.MaxOuterIterations == 0 {
		c.MaxOuterIterations = DefaultMaxOuterIterations
	}
	if !c.Persistence {
		c.CPRO = persistence.Union // zero value; field is ignored
	}
	return c
}

// hashWriter wraps a hash with fixed-width little-endian field
// encoders. Every field is written as a full 8-byte word (lengths
// prefix variable-size fields), so distinct field sequences can never
// collide by concatenation.
type hashWriter struct {
	h   hash.Hash
	buf [8]byte
	// tmp stages multi-word writes (set, setWords) so each set costs
	// one Write call instead of one per element. Writers append to a
	// local copy and store it back once per call: while a GC runs, every
	// store of this pointer field takes a write barrier.
	tmp []byte
}

func (w *hashWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *hashWriter) i64(v int64) { w.u64(uint64(v)) }
func (w *hashWriter) boolean(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *hashWriter) str(s string) {
	tmp := append(binary.LittleEndian.AppendUint64(w.tmp[:0], uint64(len(s))), s...)
	w.h.Write(tmp)
	w.tmp = tmp
}

// set hashes a set as its member count followed by each member index
// in ascending order, one 8-byte word apiece — the published request-key
// encoding. The bytes are staged in tmp straight from the backing words
// and written once per set.
func (w *hashWriter) set(s cacheset.Set) {
	tmp := binary.LittleEndian.AppendUint64(w.tmp[:0], 0) // count, patched below
	for wi, word := range s.Words() {
		for word != 0 {
			tmp = binary.LittleEndian.AppendUint64(tmp, uint64(wi*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	binary.LittleEndian.PutUint64(tmp, uint64(len(tmp)/8-1))
	w.h.Write(tmp)
	w.tmp = tmp
}

// setWords hashes a set's exact contents via its backing bit words —
// the same information as set() (capacity prefix makes the word count
// self-delimiting) at a fraction of the cost, for the hot per-task
// digests of the memo layer. Kept distinct from set() so CanonicalKey's
// published request-key encoding is untouched.
func (w *hashWriter) setWords(s cacheset.Set) {
	w.u64(uint64(s.Capacity()))
	tmp := w.tmp[:0]
	for _, word := range s.Words() {
		tmp = binary.LittleEndian.AppendUint64(tmp, word)
	}
	w.h.Write(tmp)
	w.tmp = tmp
}

// setWordsSparse hashes a set via its nonzero backing words only, as
// (index, word) pairs behind a capacity-and-count prefix, so the cost
// scales with the footprint's spread rather than the cache geometry.
// Injective for a fixed capacity: the nonzero words determine the set.
func (w *hashWriter) setWordsSparse(s cacheset.Set) {
	tmp := w.tmp[:0]
	n := uint64(0)
	for i, word := range s.Words() {
		if word != 0 {
			tmp = binary.LittleEndian.AppendUint64(tmp, uint64(i))
			tmp = binary.LittleEndian.AppendUint64(tmp, word)
			n++
		}
	}
	w.u64(uint64(s.Capacity()))
	w.u64(n)
	w.h.Write(tmp)
	w.tmp = tmp
}

func (w *hashWriter) cache(c taskmodel.CacheConfig) {
	w.i64(int64(c.NumSets))
	w.i64(int64(c.BlockSizeBytes))
	// Associativity 0 and 1 are the same geometry (direct-mapped).
	w.i64(int64(c.Ways()))
}

// CanonicalKey returns the canonical identity of analyzing ts under
// cfgs, as a 64-character lowercase hex string (SHA-256). Two requests
// share a key if and only if they are guaranteed to produce identical
// results: the platform, every task field and the normalized
// configuration list all match bit for bit. Task order does not matter
// beyond priorities: task sets constructed through NewTaskSet or
// ReadJSON are already in canonical (ascending-priority) order, and
// priorities are unique in any valid set.
//
// Platform fields no configuration in the request reads are hashed as
// zero (v2): the slot size feeds only the RR and TDMA formulas and the
// regulation parameters only the Regulated one, so e.g. two FP requests
// differing solely in SlotSize share one key — one cache slot, one
// coalescing bucket, one fleet owner.
func CanonicalKey(ts *taskmodel.TaskSet, cfgs []Config) string {
	w := &hashWriter{h: sha256.New()}
	w.str("buscon/canonical/v2")

	slotUsed, regUsed := false, false
	canon := make([]Config, len(cfgs))
	for i, c := range cfgs {
		canon[i] = c.canonical()
		switch c.Arbiter {
		case RR, TDMA:
			slotUsed = true
		case Regulated:
			regUsed = true
		}
	}

	p := ts.Platform
	if !slotUsed {
		p.SlotSize = 0
	}
	if !regUsed {
		p.RegBudget, p.RegPeriod = 0, 0
	}
	w.i64(int64(p.NumCores))
	w.cache(p.Cache)
	w.i64(int64(p.DMem))
	w.i64(int64(p.SlotSize))
	w.i64(p.RegBudget)
	w.i64(int64(p.RegPeriod))
	w.cache(p.L2)
	w.i64(int64(p.DL2))

	w.u64(uint64(len(ts.Tasks)))
	for _, t := range ts.Tasks {
		w.str(t.Name)
		w.i64(int64(t.Core))
		w.i64(int64(t.Priority))
		w.i64(int64(t.PD))
		w.i64(t.MD)
		w.i64(t.MDr)
		w.i64(int64(t.Period))
		w.i64(int64(t.Deadline))
		w.set(t.UCB)
		w.set(t.ECB)
		w.set(t.PCB)
	}

	w.u64(uint64(len(canon)))
	for _, c := range canon {
		w.i64(int64(c.Arbiter))
		w.boolean(c.Persistence)
		w.i64(int64(c.CRPD))
		w.i64(int64(c.CPRO))
		w.i64(int64(c.MaxOuterIterations))
	}
	return hex.EncodeToString(w.h.Sum(nil))
}
