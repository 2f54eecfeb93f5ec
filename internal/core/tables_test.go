package core

import (
	"reflect"
	"testing"

	"repro/internal/crpd"
	"repro/internal/telemetry"
)

// TestSlotSharing pins the one table layout: levels with the same
// cutoff on a core read one (core, cutoff) slot, so a memo-less
// analysis builds at most one same-core backbone per level and one
// remote backbone per slot — n + Σ_y (|Γ_y|+1) = 68 on 4 cores × 8
// tasks. Keyed per level, the same FP analysis built 128: one
// same-core and three remote backbones per level. Under crpd.ECBOnly
// the same-core slots take the selfLast γ shape and, on the FP bus,
// the remote ones the plain shape, so the bound holds there too.
func TestSlotSharing(t *testing.T) {
	ts := arenaSet(t, 4, 8, 0.3, 1)
	perCore := make([]int64, ts.Platform.NumCores)
	for _, task := range ts.Tasks {
		perCore[task.Core]++
	}
	bound := int64(len(ts.Tasks))
	for _, g := range perCore {
		bound += g + 1
	}
	for _, cfg := range []Config{
		{Arbiter: FP, Persistence: true},
		{Arbiter: FP, Persistence: true, CRPD: crpd.ECBOnly},
	} {
		obs := telemetry.New()
		got, err := Analyze(ts, cfg, Options{Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		want, err := AnalyzeReference(ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: result differs from the reference\n got: %+v\nwant: %+v", cfg, got, want)
		}
		builds := obs.Metrics.Get(telemetry.CtrCurveBuilds)
		if builds > bound {
			t.Errorf("%+v: %d curve builds, want <= %d (one per level and per remote slot)", cfg, builds, bound)
		}
		t.Logf("%+v: %d curve builds (bound %d)", cfg, builds, bound)
	}
}
