package server

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/telemetry"
)

// storeStep is one call on the request store. put stores results with
// inputs, fill results alone (a relayed delta's edge fill); get looks
// the results up and wants val, or a miss when val is empty; hit is get
// with inputs supplied; base looks up the inputs and wants them present
// unless noBase.
type storeStep struct {
	op, key, val string
	noBase       bool
}

// puts stores keys k0..k(n-1), oldest first, followed by then.
func puts(n int, then ...storeStep) []storeStep {
	var steps []storeStep
	for i := 0; i < n; i++ {
		steps = append(steps, storeStep{op: "put", key: fmt.Sprintf("k%d", i), val: "0"})
	}
	return append(steps, then...)
}

// TestStoreLRU drives the request store, and through it internal/lru:
// recency order over results and bases alike, updates in place, the
// capacity bound, the disabled store, and entries without inputs.
func TestStoreLRU(t *testing.T) {
	cases := []struct {
		name      string
		max       int
		steps     []storeStep
		len       int
		evictions int64
	}{
		{"cache_lru_eviction", 2, []storeStep{
			{op: "put", key: "a", val: `"A"`},
			{op: "put", key: "b", val: `"B"`},
			{op: "get", key: "a", val: `"A"`}, // touch a: b becomes LRU
			{op: "put", key: "c", val: `"C"`}, // evicts b
			{op: "get", key: "b"},
			{op: "get", key: "a", val: `"A"`},
			{op: "get", key: "c", val: `"C"`},
		}, 2, 1},
		{"cache_update_moves_to_front", 2, []storeStep{
			{op: "put", key: "a", val: "1"},
			{op: "put", key: "b", val: "2"},
			{op: "put", key: "a", val: "3"}, // update, not insert
			{op: "put", key: "c", val: "4"}, // evicts b, the LRU
			{op: "get", key: "b"},
			{op: "get", key: "a", val: "3"},
		}, 2, 1},
		{"cache_disabled", 0, []storeStep{
			{op: "put", key: "a", val: "1"},
			{op: "get", key: "a"},
			{op: "base", key: "a", noBase: true},
		}, 0, 0},
		{"cache_many_keys_bounded", 16, puts(1000,
			storeStep{op: "get", key: "k999", val: "0"},
			storeStep{op: "get", key: "k0"},
		), 16, 1000 - 16},
		{"base_registry_bounded", 4, puts(10,
			storeStep{op: "base", key: "k9"},
			storeStep{op: "base", key: "k0", noBase: true},
			storeStep{op: "base", key: "k6"}, // touching k6 protects it over k7
			storeStep{op: "put", key: "k10", val: "0"},
			storeStep{op: "base", key: "k6"},
			storeStep{op: "base", key: "k7", noBase: true},
		), 4, 7},
		{"result_only_entry_is_no_base", 4, []storeStep{
			{op: "fill", key: "e", val: "1"},
			{op: "get", key: "e", val: "1"},
			{op: "base", key: "e", noBase: true},
			{op: "hit", key: "e", val: "1"}, // a hit with inputs supplies them
			{op: "base", key: "e"},
			{op: "fill", key: "e", val: "2"}, // a later fill keeps them
			{op: "base", key: "e"},
			{op: "get", key: "e", val: "2"},
		}, 1, 0},
	}
	ts := fixtures.Fig1TaskSet()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs := telemetry.New()
			s := newStore(tc.max, obs)
			for i, st := range tc.steps {
				switch st.op {
				case "put":
					s.put(st.key, json.RawMessage(st.val), ts, nil)
				case "fill":
					s.put(st.key, json.RawMessage(st.val), nil, nil)
				case "get", "hit":
					in := ts
					if st.op == "get" {
						in = nil
					}
					e, ok := s.get(st.key, in, nil)
					if ok != (st.val != "") || string(e.raw) != st.val {
						t.Errorf("step %d: get(%s) = %q, %v; want %q", i, st.key, e.raw, ok, st.val)
					}
				case "base":
					if e, _ := s.get(st.key, nil, nil); (e.ts != nil) == st.noBase {
						t.Errorf("step %d: base(%s) = %v, want %v", i, st.key, e.ts != nil, !st.noBase)
					}
				}
			}
			if got := s.len(); got != tc.len {
				t.Errorf("len = %d, want %d", got, tc.len)
			}
			if got := obs.Metrics.Get(telemetry.CtrServerCacheEvictions); got != tc.evictions {
				t.Errorf("server.cache_evictions = %d, want %d", got, tc.evictions)
			}
		})
	}
}
