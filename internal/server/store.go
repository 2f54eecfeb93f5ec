package server

import (
	"encoding/json"
	"sync"
	"unsafe"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// store is the server's one bounded store of analyzed requests, keyed
// by canonical request key: the marshaled results, which answer a
// repeat of the request, and the decoded inputs, which make the key a
// /v1/analyze/delta base. Storing the serialized bytes (rather than
// the Result values) keeps cached responses byte-identical to the
// first computation.
//
// The bound is bytes, not entries: a 160-task base on an 8192-set
// cache weighs about fifty times a paper-shaped one, so an entry count
// that fits the one would let the other exhaust memory. Each entry is
// charged entryBytes when stored and re-charged when it gains inputs.
//
// Entries never expire. A result is a pure function of its key, and
// the key is version-tagged and covers every field the engine reads,
// so an entry cannot go stale; it leaves only under byte pressure,
// each one dropped counted on server.cache_evictions.
type store struct {
	mu      sync.Mutex
	lru     *lru.LRU[string, storeEntry]
	evicted func(storeEntry)
}

// storeEntry holds one request's results and, when this node decoded
// the request, its inputs. An entry without inputs (the edge fill of a
// relayed delta, whose inputs only the owner decoded) answers its key
// from cache but is never a delta base.
type storeEntry struct {
	raw  json.RawMessage
	ts   *taskmodel.TaskSet
	cfgs []core.Config
}

// Fixed costs entryBytes charges beyond the variable-length parts: one
// entry's node, map slot and key header; one task's struct and the
// pointer to it; one configuration.
const (
	entryOverhead = 200
	taskOverhead  = int64(unsafe.Sizeof(taskmodel.Task{}) + unsafe.Sizeof((*taskmodel.Task)(nil)))
	configBytes   = int64(unsafe.Sizeof(core.Config{}))
)

// entryBytes is the size an entry under key is charged: its results
// bytes and, when it holds inputs, per task the struct, the name and
// the UCB/ECB/PCB words, plus the configurations. A set that a delta
// shares with its base is counted in each entry holding it, so the
// total bounds the store's memory from above.
func (e storeEntry) entryBytes(key string) int64 {
	n := entryOverhead + int64(len(key)) + int64(len(e.raw))
	if e.ts != nil {
		for _, t := range e.ts.Tasks {
			n += taskOverhead + int64(len(t.Name)) +
				8*int64(len(t.UCB.Words())+len(t.ECB.Words())+len(t.PCB.Words()))
		}
		n += int64(len(e.cfgs)) * configBytes
	}
	return n
}

// newStore builds a store bounded to maxBytes of charged entries;
// maxBytes <= 0 turns off caching and deltas together.
func newStore(maxBytes int64, obs *telemetry.Observer) *store {
	return &store{
		lru:     lru.New[string, storeEntry](maxBytes),
		evicted: func(storeEntry) { obs.Add(telemetry.CtrServerCacheEvictions, 1) },
	}
}

// get returns the entry under key, marking it recently used: its raw
// results, and its inputs unless ts is nil (then it is no delta base).
// A hit records the given ts and cfgs (nil: not decoded) as the key's
// inputs when the entry lacks them, re-charged at the larger size.
func (s *store) get(key string, ts *taskmodel.TaskSet, cfgs []core.Config) (storeEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lru.Get(key)
	if ok && e.ts == nil && ts != nil {
		e.ts, e.cfgs = ts, cfgs
		s.lru.Add(key, e, e.entryBytes(key), s.evicted)
	}
	return e, ok
}

// put stores raw under key as the most recently used entry, with ts
// and cfgs as its inputs unless they are nil; inputs already stored
// are kept.
func (s *store) put(key string, raw json.RawMessage, ts *taskmodel.TaskSet, cfgs []core.Config) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.lru.Peek(key); ok && old.ts != nil {
		ts, cfgs = old.ts, old.cfgs
	}
	e := storeEntry{raw: raw, ts: ts, cfgs: cfgs}
	s.lru.Add(key, e, e.entryBytes(key), s.evicted)
}

func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// bytes reports the charged size of the resident entries, the
// server.cache_bytes gauge.
func (s *store) bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Bytes()
}
