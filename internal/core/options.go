package core

import "repro/internal/telemetry"

// Options carries cross-cutting knobs orthogonal to the analysis
// variant selected by Config. The zero value computes everything
// locally and uninstrumented.
type Options struct {
	// Observer receives analyzer telemetry: counters and histograms
	// for the fixed-point hot path and per-task analysis spans (see
	// internal/telemetry). nil — the default — keeps the hot path
	// uninstrumented; the inner loop stays allocation-free (pinned by
	// TestResponseTimeZeroAlloc).
	Observer *telemetry.Observer
	// Memo, when non-nil, is a shared content-addressed store
	// (memo.go) working at two grains: the interference tables fill
	// their columns from it, and the breakpoint-curve backbones built
	// from those columns are shared through it too — so near-duplicate
	// task sets analyzed against the same store recompute only what
	// their differences invalidate, down to reusing whole materialized
	// curves copy-free. The store is safe for concurrent use across
	// analyses. nil — the default — computes everything locally,
	// exactly as before.
	Memo *MemoStore
}

// label is the variant name used in spans and logs, matching the
// series names of internal/experiments ("FP", "RR-CP", ...).
func (c Config) label() string {
	s := c.Arbiter.String()
	if c.Persistence {
		s += "-CP"
	}
	return s
}
