package benchsuite

import (
	"reflect"
	"testing"

	"repro/internal/taskmodel"
)

func geom(nsets int) taskmodel.CacheConfig {
	return taskmodel.CacheConfig{NumSets: nsets, BlockSizeBytes: 32}
}

func extractAll(t *testing.T, nsets int) map[string]Params {
	t.Helper()
	ps, err := ExtractAll(geom(nsets))
	if err != nil {
		t.Fatalf("ExtractAll(%d sets): %v", nsets, err)
	}
	out := make(map[string]Params, len(ps))
	for _, p := range ps {
		out[p.Name] = p
	}
	return out
}

func TestSuiteSizeAndNames(t *testing.T) {
	s := Suite()
	if len(s) != 20 {
		t.Fatalf("suite size = %d, want 20", len(s))
	}
	seen := map[string]bool{}
	for _, b := range s {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		seen[b.Name] = true
		if err := b.Prog.Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", b.Name, err)
		}
	}
	// Every published Table I benchmark exists in the suite.
	for _, row := range PaperTable1() {
		if !seen[row.Name] {
			t.Errorf("paper benchmark %q missing from suite", row.Name)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("fdct")
	if err != nil || b.Name != "fdct" {
		t.Fatalf("ByName(fdct) = %v, %v", b.Name, err)
	}
	if _, err := ByName("doesnotexist"); err == nil {
		t.Fatal("ByName(doesnotexist) = nil error")
	}
}

// TestByNameMatchesSuite: ByName builds exactly the program Suite
// lists under that name.
func TestByNameMatchesSuite(t *testing.T) {
	for _, want := range Suite() {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%s) differs from its Suite entry", want.Name)
		}
	}
}

// TestByNameBuildsOnlyOne: ByName builds the named program alone, not
// the whole suite: lcdnum costs under a twentieth of Suite's
// allocations, and building every program by name costs no more than
// building the suite once.
func TestByNameBuildsOnlyOne(t *testing.T) {
	allocs := func(name string) float64 {
		return testing.AllocsPerRun(10, func() { _, _ = ByName(name) })
	}
	suite := testing.AllocsPerRun(10, func() { Suite() })
	if one := allocs("lcdnum"); one*20 >= suite {
		t.Errorf("ByName(lcdnum) made %.0f allocations, Suite %.0f: want under a twentieth", one, suite)
	}
	sum := 0.0
	for _, b := range Suite() {
		sum += allocs(b.Name)
	}
	if sum > suite {
		t.Errorf("ByName over every name made %.0f allocations, Suite %.0f: want no more", sum, suite)
	}
}

func TestDefaultGeometryBasicSanity(t *testing.T) {
	ps := extractAll(t, 256)
	for name, p := range ps {
		r := p.Result
		if r.PD <= 0 {
			t.Errorf("%s: PD = %d, want > 0", name, r.PD)
		}
		if r.MD <= 0 {
			t.Errorf("%s: MD = %d, want > 0", name, r.MD)
		}
		if r.MDr > r.MD {
			t.Errorf("%s: MDr %d > MD %d", name, r.MDr, r.MD)
		}
		if r.ECB.IsEmpty() {
			t.Errorf("%s: empty ECB", name)
		}
		if !r.PCB.SubsetOf(r.ECB) || !r.UCB.SubsetOf(r.ECB) {
			t.Errorf("%s: PCB/UCB not within ECB", name)
		}
	}
}

func TestRegimesMatchPaperQualitatively(t *testing.T) {
	ps := extractAll(t, 256)

	// lcdnum: tiny and fully persistent (paper: ECB=PCB=20).
	lcd := ps["lcdnum"].Result
	if !lcd.PCB.Equal(lcd.ECB) {
		t.Errorf("lcdnum: PCB %v != ECB %v (fully persistent expected)", lcd.PCB, lcd.ECB)
	}
	if lcd.ECB.Count() != 20 {
		t.Errorf("lcdnum: |ECB| = %d, want 20", lcd.ECB.Count())
	}
	if lcd.MDr != 0 {
		t.Errorf("lcdnum: MDr = %d, want 0", lcd.MDr)
	}

	// bsort100: execution-dominated with almost no reclaimable
	// persistence (paper: PD ≈ 8×MD, MD^r/MD = 0.99).
	bs := ps["bsort100"].Result
	if bs.PD < 4*bs.MD {
		t.Errorf("bsort100: PD %d not execution-dominated vs MD %d", bs.PD, bs.MD)
	}
	if ratio := float64(bs.MDr) / float64(bs.MD); ratio < 0.6 {
		t.Errorf("bsort100: MDr/MD = %.2f, want high (thrashing inner loop)", ratio)
	}

	// ludcmp: fully persistent mid-size kernel (paper: ECB=PCB=98).
	lu := ps["ludcmp"].Result
	if !lu.PCB.Equal(lu.ECB) {
		t.Errorf("ludcmp: expected fully persistent")
	}
	if lu.ECB.Count() != 98 {
		t.Errorf("ludcmp: |ECB| = %d, want 98", lu.ECB.Count())
	}

	// fdct: partially persistent with most of MD reclaimable
	// (paper: MD^r/MD ≈ 0.14).
	fd := ps["fdct"].Result
	if fd.PCB.Equal(fd.ECB) || fd.PCB.IsEmpty() {
		t.Errorf("fdct: |PCB| = %d of |ECB| = %d, want partial persistence", fd.PCB.Count(), fd.ECB.Count())
	}
	if ratio := float64(fd.MDr) / float64(fd.MD); ratio > 0.3 || ratio == 0 {
		t.Errorf("fdct: MDr/MD = %.2f, want small but nonzero", ratio)
	}

	// nsichneu: overflows the cache — zero persistence (paper: PCB=0,
	// MD = MDr, ECB = 256).
	nsi := ps["nsichneu"].Result
	if !nsi.PCB.IsEmpty() {
		t.Errorf("nsichneu: PCB = %v, want empty", nsi.PCB)
	}
	if nsi.MDr != nsi.MD {
		t.Errorf("nsichneu: MDr %d != MD %d", nsi.MDr, nsi.MD)
	}
	if nsi.ECB.Count() != 256 {
		t.Errorf("nsichneu: |ECB| = %d, want 256", nsi.ECB.Count())
	}

	// statemate: large footprint, mostly persistent (paper:
	// MD^r/MD ≈ 0.21).
	sm := ps["statemate"].Result
	if sm.PCB.IsEmpty() || sm.PCB.Equal(sm.ECB) {
		t.Errorf("statemate: PCB %d of ECB %d, want partial persistence",
			sm.PCB.Count(), sm.ECB.Count())
	}
	if sm.ECB.Count() < 200 {
		t.Errorf("statemate: |ECB| = %d, want large (>=200)", sm.ECB.Count())
	}
	if ratio := float64(sm.MDr) / float64(sm.MD); ratio > 0.35 || ratio == 0 {
		t.Errorf("statemate: MDr/MD = %.2f, want ~0.2", ratio)
	}

	// The new memory-heavy benchmarks are fully persistent and
	// memory-dominated: MD·d_mem at the default d_mem=5 is comparable
	// to PD, which is what lets persistence awareness move the
	// schedulability curves.
	for _, name := range []string{"cover", "ndes", "st"} {
		r := ps[name].Result
		if !r.PCB.Equal(r.ECB) {
			t.Errorf("%s: expected fully persistent", name)
		}
		if r.MDr != 0 {
			t.Errorf("%s: MDr = %d, want 0", name, r.MDr)
		}
		if memTime := r.MD * 5; memTime*3 < int64(r.PD) {
			t.Errorf("%s: memory time %d not comparable to PD %d", name, memTime, r.PD)
		}
	}
}

func TestCacheSizeMonotonicityOfPersistence(t *testing.T) {
	// Growing the cache can only increase each benchmark's PCB count
	// and decrease MD: fewer conflicts.
	sizes := []int{32, 64, 128, 256, 512, 1024}
	var prev map[string]Params
	for _, n := range sizes {
		cur := extractAll(t, n)
		if prev != nil {
			for name := range cur {
				if cur[name].Result.PCB.Count() < prev[name].Result.PCB.Count() {
					t.Errorf("%s: |PCB| shrank from %d to %d when cache grew to %d sets",
						name, prev[name].Result.PCB.Count(), cur[name].Result.PCB.Count(), n)
				}
				if cur[name].Result.MD > prev[name].Result.MD {
					t.Errorf("%s: MD grew from %d to %d when cache grew to %d sets",
						name, prev[name].Result.MD, cur[name].Result.MD, n)
				}
			}
		}
		prev = cur
	}
	// At 1024 sets every benchmark fits without conflicts: fully
	// persistent across the board.
	for name, p := range prev {
		if !p.Result.PCB.Equal(p.Result.ECB) {
			t.Errorf("%s: not fully persistent at 1024 sets", name)
		}
	}
}

func TestPaperTable1Embedded(t *testing.T) {
	rows := PaperTable1()
	if len(rows) != 6 {
		t.Fatalf("PaperTable1 rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.MDr > r.MD {
			t.Errorf("%s: published MDr %d > MD %d", r.Name, r.MDr, r.MD)
		}
		if r.PCB > r.ECB || r.UCB > r.ECB {
			t.Errorf("%s: published PCB/UCB exceed ECB", r.Name)
		}
	}
	// Spot-check the exact published values.
	if rows[0] != (Table1Row{"lcdnum", 984, 1440, 192, 20, 20, 20}) {
		t.Errorf("lcdnum row = %+v", rows[0])
	}
	if rows[4] != (Table1Row{"nsichneu", 22009, 147200, 147200, 256, 0, 256}) {
		t.Errorf("nsichneu row = %+v", rows[4])
	}
}

func TestExtractDeterministic(t *testing.T) {
	a := extractAll(t, 256)
	b := extractAll(t, 256)
	for name := range a {
		ra, rb := a[name].Result, b[name].Result
		if ra.PD != rb.PD || ra.MD != rb.MD || ra.MDr != rb.MDr ||
			!ra.ECB.Equal(rb.ECB) || !ra.PCB.Equal(rb.PCB) || !ra.UCB.Equal(rb.UCB) {
			t.Errorf("%s: extraction not deterministic", name)
		}
	}
}
