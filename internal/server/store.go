package server

import (
	"encoding/json"
	"sync"

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
// Entries never expire. A result is a pure function of its key, and
// the key is version-tagged and covers every field the engine reads,
// so an entry cannot go stale; it leaves only under capacity pressure,
// counted on server.cache_evictions.
type store struct {
	mu  sync.Mutex
	lru *lru.LRU[string, storeEntry]
	obs *telemetry.Observer
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

// newStore builds a store holding up to max requests; max <= 0 turns
// off caching and deltas together.
func newStore(max int, obs *telemetry.Observer) *store {
	return &store{lru: lru.New[string, storeEntry](max), obs: obs}
}

// get returns the entry under key, marking it recently used: its raw
// results, and its inputs unless ts is nil (then it is no delta base).
// A hit records the given ts and cfgs (nil: not decoded) as the key's
// inputs when the entry lacks them.
func (s *store) get(key string, ts *taskmodel.TaskSet, cfgs []core.Config) (storeEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lru.Get(key)
	if ok && e.ts == nil && ts != nil {
		e.ts, e.cfgs = ts, cfgs
		s.lru.Add(key, e)
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
	if _, evicted := s.lru.Add(key, storeEntry{raw: raw, ts: ts, cfgs: cfgs}); evicted {
		s.obs.Add(telemetry.CtrServerCacheEvictions, 1)
	}
}

func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}
