package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/crpd"
	"repro/internal/fixtures"
	"repro/internal/persistence"
)

func mustRing(t *testing.T, self string, members []string) *Ring {
	t.Helper()
	r, err := NewRing(self, members, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Every key must have exactly one owner, and every member must agree
// on who that is, regardless of the order its member list was written
// in — the property that lets nodes route without coordination.
func TestOwnershipDeterministicAndOrderInsensitive(t *testing.T) {
	members := []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080"}
	rings := make([]*Ring, len(members))
	rng := rand.New(rand.NewSource(7))
	for i, self := range members {
		shuffled := append([]string(nil), members...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		rings[i] = mustRing(t, self, shuffled)
	}
	owned := make([]int, len(members))
	for k := 0; k < 1000; k++ {
		key := fmt.Sprintf("key-%d", k)
		owner := rings[0].OwnerURL(key)
		locals := 0
		for i, r := range rings {
			if got := r.OwnerURL(key); got != owner {
				t.Fatalf("key %q: ring %d says owner %s, ring 0 says %s", key, i, got, owner)
			}
			if r.OwnsLocally(key) {
				locals++
				owned[i]++
			}
		}
		if locals != 1 {
			t.Fatalf("key %q: %d nodes claim local ownership, want exactly 1", key, locals)
		}
	}
	// The FNV partition should spread keys roughly evenly; a pathological
	// skew would turn one node into the whole fleet's hot spot.
	for i, n := range owned {
		if n < 200 || n > 500 {
			t.Errorf("node %d owns %d of 1000 keys — partition badly skewed", i, n)
		}
	}
}

// Restart stability: ownership is a pure function of (key, sorted
// member list), so rebuilding the ring must reproduce it exactly —
// there is no hidden per-process state.
func TestOwnershipStableAcrossRestarts(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3", "d:4"}
	r1 := mustRing(t, "a:1", members)
	r2 := mustRing(t, "a:1", members)
	for k := 0; k < 500; k++ {
		key := fmt.Sprintf("job-%d", k)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("key %q: owner changed across ring rebuilds", key)
		}
		// And the partition is literally the checkpoint shard partition.
		if r1.Owner(key) != checkpoint.PartitionIndex(key, len(members)) {
			t.Fatalf("key %q: ring owner diverges from checkpoint.PartitionIndex", key)
		}
	}
}

func TestSelfIncludedAndDeduped(t *testing.T) {
	// Self absent from the member list is added; duplicates and
	// trailing-slash/scheme variants collapse.
	r := mustRing(t, "127.0.0.1:1", []string{"127.0.0.1:2/", "http://127.0.0.1:2", "127.0.0.1:3"})
	if r.Len() != 3 {
		t.Fatalf("ring size %d, want 3 (nodes %v)", r.Len(), r.Nodes())
	}
	if r.SelfURL() != "http://127.0.0.1:1" {
		t.Fatalf("self = %q", r.SelfURL())
	}
	single := mustRing(t, "127.0.0.1:1", nil)
	if single.Len() != 1 || !single.OwnsLocally("anything") {
		t.Fatal("single-node ring must own every key")
	}
}

func TestNewRingRejectsBadAddresses(t *testing.T) {
	if _, err := NewRing("", nil, 0); err == nil {
		t.Fatal("empty self accepted")
	}
	if _, err := NewRing("ftp://x:1", nil, 0); err == nil {
		t.Fatal("ftp scheme accepted")
	}
	if _, err := NewRing("a:1", []string{"   "}, 0); err == nil {
		t.Fatal("blank peer accepted")
	}
}

// TestWireNameCompleteness drives every declared engine enum value
// through the client's request encoder: a newly declared arbiter, CRPD
// or CPRO approach the encoder cannot name would otherwise only
// surface as a runtime failure in the middle of a cluster sweep.
func TestWireNameCompleteness(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	var cfgs []core.Config
	for _, arb := range core.Arbiters() {
		cfgs = append(cfgs, core.Config{Arbiter: arb})
	}
	for _, ap := range []crpd.Approach{
		crpd.ECBUnion, crpd.UCBOnly, crpd.ECBOnly, crpd.UCBUnion, crpd.Combined,
	} {
		cfgs = append(cfgs, core.Config{CRPD: ap})
	}
	for _, ap := range []persistence.CPROApproach{
		persistence.Union, persistence.MultisetUnion, persistence.FullReload, persistence.None,
	} {
		cfgs = append(cfgs, core.Config{CPRO: ap})
	}
	body, err := EncodeAnalyzeBody(ts, cfgs)
	if err != nil {
		t.Fatalf("EncodeAnalyzeBody: %v", err)
	}
	var req struct {
		Configs []core.WireConfig `json:"configs"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Configs) != len(cfgs) {
		t.Fatalf("encoded %d configs, want %d", len(req.Configs), len(cfgs))
	}
	for i, wc := range req.Configs {
		if wc.Arbiter == "" || wc.CRPD == "" || wc.CPRO == "" {
			t.Errorf("config %+v encoded with an empty name: %+v", cfgs[i], wc)
			continue
		}
		if got, err := wc.Config(); err != nil || got != cfgs[i] {
			t.Errorf("config %+v encoded as %+v, which parses back to %+v, %v", cfgs[i], wc, got, err)
		}
	}
	if _, err := EncodeAnalyzeBody(ts, []core.Config{{Arbiter: core.Arbiter(99)}}); err == nil {
		t.Error("EncodeAnalyzeBody accepted an undeclared arbiter")
	}
}

func TestForwardedHopGuard(t *testing.T) {
	req, _ := http.NewRequest(http.MethodPost, "http://x/v1/analyze", nil)
	if Forwarded(req) {
		t.Fatal("fresh request reported as forwarded")
	}
	req.Header.Set(ForwardedHeader, "http://peer:1")
	if !Forwarded(req) {
		t.Fatal("forwarded request not detected")
	}
	if Forwarded(nil) {
		t.Fatal("nil request reported as forwarded")
	}
}
