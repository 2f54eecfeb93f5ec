package benchsuite

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/staticwcet"
	"repro/internal/taskmodel"
)

// digestGeometries are the 36 cache geometries the extraction digest
// covers: 64 to 8192 sets, 16- and 32-byte blocks, 1 to 4 ways.
func digestGeometries() []taskmodel.CacheConfig {
	var out []taskmodel.CacheConfig
	for _, sets := range []int{64, 128, 256, 1024, 4096, 8192} {
		for _, block := range []int{16, 32} {
			for _, ways := range []int{1, 2, 4} {
				out = append(out, taskmodel.CacheConfig{NumSets: sets, BlockSizeBytes: block, Associativity: ways})
			}
		}
	}
	return out
}

// writeResult feeds every field of one analysis result to h.
func writeResult(h hash.Hash, r *staticwcet.Result) {
	fmt.Fprintln(h, r.PD, r.MD, r.MDr, r.MDExact, r.MDrExact)
	fmt.Fprintln(h, r.ECB.Capacity(), r.ECB.Indices(), r.UCB.Capacity(), r.UCB.Indices(), r.PCB.Capacity(), r.PCB.Indices())
	fmt.Fprintln(h, r.PCBBlocks)
	for _, ref := range r.Refs {
		fmt.Fprintln(h, ref.Block, ref.Set, ref.ExecCount, int(ref.Class), ref.Misses)
	}
}

// extractDigest is the SHA-256 of every Result field of the whole
// suite over digestGeometries, recorded from the set-indexed must
// state that preceded the footprint-indexed one.
const extractDigest = "16141ff5a7be8d87085d879e670025862815a2050b78ef8b7dc730a9c6de5214"

// TestExtractDigest pins the static analysis bit for bit across cache
// geometries: a change to how the must-cache state is stored or walked
// must not move a single PD, miss count, footprint set or per-reference
// classification.
func TestExtractDigest(t *testing.T) {
	h := sha256.New()
	for _, g := range digestGeometries() {
		ps, err := ExtractAll(g)
		if err != nil {
			t.Fatalf("ExtractAll(%+v): %v", g, err)
		}
		fmt.Fprintln(h, g)
		for _, p := range ps {
			fmt.Fprintln(h, p.Name)
			writeResult(h, p.Result)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != extractDigest {
		t.Errorf("extraction digest %s, want %s", got, extractDigest)
	}
}

// hierarchyDigest is the SHA-256 of every HierResult field of the
// whole suite with each digestGeometries entry as L1 over an L2 of
// twice its sets and ways, recorded like extractDigest.
const hierarchyDigest = "61b23ac3838336829d53047e6e9f055acdaea89767e37eb5797477c7de6bf968"

// TestHierarchyDigest pins the two-level analysis the same way: its L2
// pass walks the must state of the L2 geometry.
func TestHierarchyDigest(t *testing.T) {
	h := sha256.New()
	for _, g := range digestGeometries() {
		l2 := g
		l2.NumSets, l2.Associativity = 2*g.NumSets, 2*g.Ways()
		fmt.Fprintln(h, g, l2)
		for _, b := range Suite() {
			r, err := staticwcet.AnalyzeHierarchy(b.Prog, g, l2)
			if err != nil {
				t.Fatalf("AnalyzeHierarchy(%s, %+v, %+v): %v", b.Name, g, l2, err)
			}
			fmt.Fprintln(h, b.Name, r.PD, r.L1Misses, r.MD, r.MDr, r.MDExact, r.MDrExact)
			fmt.Fprintln(h, r.ECB.Indices(), r.UCB.Indices(), r.PCB.Indices(), r.PCBBlocks)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != hierarchyDigest {
		t.Errorf("hierarchy digest %s, want %s", got, hierarchyDigest)
	}
}

// BenchmarkExtractAll is the whole suite's static analysis on the
// edit-workload geometry (8192 sets), where a must-cache state sized
// by the cache rather than the program's footprint used to dominate.
func BenchmarkExtractAll(b *testing.B) {
	g := geom(8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractAll(g); err != nil {
			b.Fatal(err)
		}
	}
}
