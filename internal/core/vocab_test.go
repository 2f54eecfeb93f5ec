package core

import (
	"strings"
	"testing"

	"repro/internal/crpd"
	"repro/internal/persistence"
)

// TestVocabulary pins the one name table every CLI, the server and the
// fleet encoder read: each declared variant must survive the trip to
// names and back, names parse in any letter case, and malformed input
// fails with the error texts the HTTP API has always returned.
func TestVocabulary(t *testing.T) {
	t.Run("round trip", func(t *testing.T) {
		allCRPD := []crpd.Approach{crpd.ECBUnion, crpd.UCBOnly, crpd.ECBOnly, crpd.UCBUnion, crpd.Combined}
		allCPRO := []persistence.CPROApproach{
			persistence.Union, persistence.MultisetUnion, persistence.FullReload, persistence.None,
		}
		for _, arb := range Arbiters() {
			for _, cr := range allCRPD {
				for _, cp := range allCPRO {
					for _, p := range []bool{false, true} {
						cfg := Config{Arbiter: arb, Persistence: p, CRPD: cr, CPRO: cp, MaxOuterIterations: 7}
						wc, err := cfg.Wire()
						if err != nil {
							t.Fatalf("%+v.Wire(): %v", cfg, err)
						}
						back, err := wc.Config()
						if err != nil || back != cfg {
							t.Fatalf("%+v → %+v → %+v, %v", cfg, wc, back, err)
						}
					}
				}
			}
		}
	})

	t.Run("letter case", func(t *testing.T) {
		for _, arb := range Arbiters() {
			wc, err := Config{Arbiter: arb}.Wire()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []string{wc.Arbiter, strings.ToUpper(wc.Arbiter), strings.ToUpper(wc.Arbiter[:1]) + wc.Arbiter[1:]} {
				if got, err := ParseArbiter(s); err != nil || got != arb {
					t.Errorf("ParseArbiter(%q) = %v, %v; want %v", s, got, err, arb)
				}
			}
		}
		cfg, err := WireConfig{Arbiter: "RR", CRPD: "Combined", CPRO: "MULTISET"}.Config()
		if want := (Config{Arbiter: RR, CRPD: crpd.Combined, CPRO: persistence.MultisetUnion}); err != nil || cfg != want {
			t.Errorf("mixed-case config = %+v, %v; want %+v", cfg, err, want)
		}
	})

	t.Run("defaults", func(t *testing.T) {
		cfg, err := WireConfig{Arbiter: "fp"}.Config()
		if want := (Config{Arbiter: FP, CRPD: crpd.ECBUnion, CPRO: persistence.Union}); err != nil || cfg != want {
			t.Errorf("empty CRPD/CPRO = %+v, %v; want %+v", cfg, err, want)
		}
	})

	t.Run("errors", func(t *testing.T) {
		for _, c := range []struct {
			wc   WireConfig
			want string
		}{
			{WireConfig{}, "missing arbiter (want fp, rr, tdma, perfect, regulated or paraware)"},
			{WireConfig{Arbiter: "warp-drive"}, `unknown arbiter "warp-drive" (want fp, rr, tdma, perfect, regulated or paraware)`},
			{WireConfig{Arbiter: "rr", CRPD: "magic"}, `unknown CRPD approach "magic"`},
			{WireConfig{Arbiter: "rr", CPRO: "magic"}, `unknown CPRO approach "magic"`},
			{WireConfig{Arbiter: "rr", MaxOuterIterations: -1}, "negative max_outer_iterations"},
		} {
			if _, err := c.wc.Config(); err == nil || err.Error() != c.want {
				t.Errorf("%+v.Config() error = %v; want %q", c.wc, err, c.want)
			}
		}
		if _, err := ParseArbiter("priority"); err == nil {
			t.Error(`ParseArbiter("priority") accepted`)
		}
	})

	t.Run("undeclared values", func(t *testing.T) {
		for _, cfg := range []Config{
			{Arbiter: Arbiter(99)},
			{Arbiter: Arbiter(-1)},
			{CRPD: crpd.Approach(99)},
			{CPRO: persistence.CPROApproach(-1)},
		} {
			if wc, err := cfg.Wire(); err == nil {
				t.Errorf("%+v.Wire() = %+v; want an error", cfg, wc)
			}
		}
	})
}
