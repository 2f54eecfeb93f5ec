package core

import (
	"fmt"
	"strings"

	"repro/internal/crpd"
	"repro/internal/persistence"
)

// The analysis variants' vocabulary: the names the CLIs take as flags
// and the HTTP API takes as JSON fields. Each table is indexed by enum
// value, so parsing scans it (ignoring case) and naming indexes it.
var (
	arbiterNames = [...]string{
		FP: "fp", RR: "rr", TDMA: "tdma", Perfect: "perfect",
		Regulated: "regulated", ParAware: "paraware",
	}
	crpdNames = [...]string{
		crpd.ECBUnion: "ecb-union", crpd.UCBOnly: "ucb-only", crpd.ECBOnly: "ecb-only",
		crpd.UCBUnion: "ucb-union", crpd.Combined: "combined",
	}
	cproNames = [...]string{
		persistence.Union: "union", persistence.MultisetUnion: "multiset",
		persistence.FullReload: "full", persistence.None: "none",
	}
)

// lookup returns the index of s in names, ignoring case.
func lookup(names []string, s string) (int, bool) {
	for i, n := range names {
		if strings.EqualFold(n, s) {
			return i, true
		}
	}
	return 0, false
}

// nameOf returns names[v], or false when v is not a declared value.
func nameOf(names []string, v int) (string, bool) {
	if v < 0 || v >= len(names) {
		return "", false
	}
	return names[v], true
}

// arbiterWant renders the arbiter names as "fp, rr, ... or paraware".
func arbiterWant() string {
	n := len(arbiterNames)
	return strings.Join(arbiterNames[:n-1], ", ") + " or " + arbiterNames[n-1]
}

// ParseArbiter maps an arbiter name ("fp", "rr", "tdma", "perfect",
// "regulated" or "paraware", in any letter case) to its Arbiter.
func ParseArbiter(s string) (Arbiter, error) {
	if s == "" {
		return 0, fmt.Errorf("missing arbiter (want %s)", arbiterWant())
	}
	if i, ok := lookup(arbiterNames[:], s); ok {
		return Arbiter(i), nil
	}
	return 0, fmt.Errorf("unknown arbiter %q (want %s)", s, arbiterWant())
}

// WireConfig is a Config in the named vocabulary, the form an analysis
// configuration takes on the HTTP API. Empty CRPD and CPRO select the
// paper's defaults (ecb-union, union); the arbiter is required.
type WireConfig struct {
	Arbiter            string `json:"arbiter"`
	Persistence        bool   `json:"persistence,omitempty"`
	CRPD               string `json:"crpd,omitempty"`
	CPRO               string `json:"cpro,omitempty"`
	MaxOuterIterations int    `json:"max_outer_iterations,omitempty"`
}

// MaxWireOuterIterations caps max_outer_iterations on the wire, 16×
// DefaultMaxOuterIterations: the outer loop is what bounds one
// analysis's runtime, and a worker is never preempted mid-analysis.
const MaxWireOuterIterations = 16 * DefaultMaxOuterIterations

// Config parses the names into an engine configuration.
func (w WireConfig) Config() (Config, error) {
	arb, err := ParseArbiter(w.Arbiter)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Arbiter: arb, Persistence: w.Persistence, MaxOuterIterations: w.MaxOuterIterations}
	if w.CRPD != "" {
		i, ok := lookup(crpdNames[:], w.CRPD)
		if !ok {
			return Config{}, fmt.Errorf("unknown CRPD approach %q", w.CRPD)
		}
		cfg.CRPD = crpd.Approach(i)
	}
	if w.CPRO != "" {
		i, ok := lookup(cproNames[:], w.CPRO)
		if !ok {
			return Config{}, fmt.Errorf("unknown CPRO approach %q", w.CPRO)
		}
		cfg.CPRO = persistence.CPROApproach(i)
	}
	if w.MaxOuterIterations < 0 {
		return Config{}, fmt.Errorf("negative max_outer_iterations")
	}
	if w.MaxOuterIterations > MaxWireOuterIterations {
		return Config{}, fmt.Errorf("max_outer_iterations %d exceeds the limit of %d", w.MaxOuterIterations, MaxWireOuterIterations)
	}
	return cfg, nil
}

// Wire names the configuration; it fails on an enum value outside the
// declared ones.
func (c Config) Wire() (WireConfig, error) {
	arb, ok := nameOf(arbiterNames[:], int(c.Arbiter))
	if !ok {
		return WireConfig{}, fmt.Errorf("unmapped arbiter %v", c.Arbiter)
	}
	crpdName, ok := nameOf(crpdNames[:], int(c.CRPD))
	if !ok {
		return WireConfig{}, fmt.Errorf("unmapped CRPD approach %v", c.CRPD)
	}
	cproName, ok := nameOf(cproNames[:], int(c.CPRO))
	if !ok {
		return WireConfig{}, fmt.Errorf("unmapped CPRO approach %v", c.CPRO)
	}
	return WireConfig{
		Arbiter: arb, Persistence: c.Persistence,
		CRPD: crpdName, CPRO: cproName,
		MaxOuterIterations: c.MaxOuterIterations,
	}, nil
}
