package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crpd"
	"repro/internal/persistence"
)

// analysisLine runs buscon on the paper example with extra flags and
// returns its "analysis:" header line, which names the configuration
// the flags were parsed into.
func analysisLine(t *testing.T, path string, flags ...string) (string, error) {
	t.Helper()
	var out, errOut bytes.Buffer
	code, err := run(context.Background(), append([]string{"-in", path}, flags...), &out, &errOut)
	if err != nil {
		return "", err
	}
	if code != 0 {
		t.Fatalf("%v: exit code = %d (stderr: %s)", flags, code, errOut.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "analysis:") {
			return line, nil
		}
	}
	t.Fatalf("%v: no analysis line in output:\n%s", flags, out.String())
	return "", nil
}

func TestParseArbiter(t *testing.T) {
	path := writeFig1(t)
	cases := map[string]core.Arbiter{
		"fp": core.FP, "FP": core.FP,
		"rr": core.RR, "RR": core.RR,
		"tdma": core.TDMA, "TDMA": core.TDMA,
		"perfect": core.Perfect, "Perfect": core.Perfect,
	}
	for in, want := range cases {
		line, err := analysisLine(t, path, "-arbiter", in)
		if err != nil || !strings.Contains(line, fmt.Sprintf("analysis: %s bus,", want)) {
			t.Errorf("-arbiter %s: %q, %v; want %v", in, line, err, want)
		}
	}
	if _, err := analysisLine(t, path, "-arbiter", "priority"); err == nil {
		t.Error("-arbiter priority accepted")
	}
}

func TestParseCRPD(t *testing.T) {
	path := writeFig1(t)
	cases := map[string]crpd.Approach{
		"ecb-union": crpd.ECBUnion,
		"ucb-only":  crpd.UCBOnly,
		"ecb-only":  crpd.ECBOnly,
		"ucb-union": crpd.UCBUnion,
		"combined":  crpd.Combined,
	}
	for in, want := range cases {
		line, err := analysisLine(t, path, "-crpd", in)
		if err != nil || !strings.Contains(line, fmt.Sprintf("crpd=%s,", want)) {
			t.Errorf("-crpd %s: %q, %v; want %v", in, line, err, want)
		}
	}
	if _, err := analysisLine(t, path, "-crpd", "magic"); err == nil {
		t.Error("-crpd magic accepted")
	}
}

func TestParseCPRO(t *testing.T) {
	path := writeFig1(t)
	cases := map[string]persistence.CPROApproach{
		"union":    persistence.Union,
		"multiset": persistence.MultisetUnion,
		"full":     persistence.FullReload,
		"none":     persistence.None,
	}
	for in, want := range cases {
		line, err := analysisLine(t, path, "-cpro", in)
		if err != nil || !strings.HasSuffix(line, fmt.Sprintf("cpro=%s", want)) {
			t.Errorf("-cpro %s: %q, %v; want %v", in, line, err, want)
		}
	}
	if _, err := analysisLine(t, path, "-cpro", "magic"); err == nil {
		t.Error("-cpro magic accepted")
	}
}
