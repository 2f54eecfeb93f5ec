package core

import (
	"testing"

	"repro/internal/cacheset"
	"repro/internal/fixtures"
	"repro/internal/taskmodel"
)

// The published request-key encoding (CanonicalKey's "v2" byte stream)
// is pinned here by value. Every other key test compares two keys
// computed by the same function, so an encoding drift that changes all
// keys alike — say, a rewrite of how a cache set is hashed — passes
// them all while orphaning every cached result and every fleet
// placement. The hex strings below must never change without a new
// version tag in CanonicalKey.

// boundarySet builds a two-core set whose footprints hit the bitset
// corner cases: the empty set, the full set of a capacity that is not a
// multiple of 64, and members at both edges of a word boundary.
func boundarySet() *taskmodel.TaskSet {
	const n = 200
	full := cacheset.New(n)
	for i := 0; i < n; i++ {
		full.Add(i)
	}
	edges := cacheset.Of(n, 0, 63, 64, 127, n-1)
	p := taskmodel.Platform{
		NumCores: 2,
		Cache:    taskmodel.CacheConfig{NumSets: n, BlockSizeBytes: 32},
		DMem:     7, SlotSize: 2, RegBudget: 3, RegPeriod: 50,
	}
	return taskmodel.NewTaskSet(p, []*taskmodel.Task{
		{Name: "edges", Core: 0, Priority: 0, PD: 10, MD: 4, MDr: 2, Period: 100, Deadline: 90,
			UCB: cacheset.New(n), ECB: full, PCB: edges},
		{Name: "full", Core: 1, Priority: 1, PD: 20, MD: 8, MDr: 8, Period: 200, Deadline: 200,
			UCB: edges, ECB: full, PCB: cacheset.New(n)},
		{Name: "one", Core: 1, Priority: 2, PD: 5, MD: 1, MDr: 0, Period: 400, Deadline: 400,
			UCB: cacheset.Of(n, 64), ECB: cacheset.Of(n, 63, 64), PCB: cacheset.Of(n, 63)},
	})
}

func TestCanonicalKeyGolden(t *testing.T) {
	regulated := append(deltaSweepConfigs(), Config{Arbiter: Regulated, Persistence: true})
	for _, c := range []struct {
		name string
		ts   *taskmodel.TaskSet
		cfgs []Config
		want string
	}{
		{"fig1", fixtures.Fig1TaskSet(), fig1Cfgs(),
			"84c8020e7da97f76501f54cb2b7bcf63770c7d53d3c3a9053661139fe7b2e4ae"},
		{"paper-default", benchSet(t, 0.3), deltaSweepConfigs(),
			"2a413106647b0481c125479349169185f03bd6fab186eaae8e9b52bfd3ff5376"},
		{"edit-shape", deltaSweepSet(t), deltaSweepConfigs(),
			"dd89a3e5a670aeaf6954b716894481d5b6c1a63d637292e8abaa39081526ab59"},
		{"boundary", boundarySet(), fig1Cfgs(),
			"857cec1101a2a6c8b1de166f57497c6bf0dca71344f35d33fce3f38f6dc857aa"},
		{"boundary-regulated", boundarySet(), regulated,
			"263b3238a4a4fd86824f342a4673268f7f38e33bf6142d2ff9d111bf70fe4537"},
	} {
		if got := CanonicalKey(c.ts, c.cfgs); got != c.want {
			t.Errorf("%s: CanonicalKey = %s, want %s", c.name, got, c.want)
		}
	}
}
