package core

import (
	"testing"

	"repro/internal/fixtures"
	"repro/internal/taskmodel"
)

// These tests replay Section IV's worked example (Fig. 1) number by
// number: the baseline Eq. (12)–(13) values and the persistence-aware
// counts of Eq. (15) and the remark below Lemma 2.
//
// The per-term values are read from the oracle (reference.go), which
// evaluates each equation directly; the differential test ties the
// engine to it.
//
// The window analysed is R_2 with E_1(R_2)=3 jobs of τ1 and a remote
// estimate R_3 = 26 giving N_{2,3}^y = 4 full jobs of τ3.
const exampleWindow = taskmodel.Time(100)

func exampleReference(t *testing.T, persistence bool) *Reference {
	t.Helper()
	ts := fixtures.Fig1TaskSet()
	a, err := NewReference(ts, Config{Arbiter: RR, Persistence: persistence})
	if err != nil {
		t.Fatalf("NewReference: %v", err)
	}
	a.R[2] = 26 // τ3's response time estimate used by the example
	return a
}

func TestFig1BaselineBAS(t *testing.T) {
	a := exampleReference(t, false)
	// Eq. (12): BAS_2^x(R_2) = MD_2 + 3×(MD_1 + γ_{2,1,x}) = 8 + 3×8 = 32.
	if got := a.BAS(1, 0, exampleWindow); got != 32 {
		t.Errorf("BAS_2^x = %d, want 32", got)
	}
}

func TestFig1BaselineBAO(t *testing.T) {
	a := exampleReference(t, false)
	// Eq. (13): BAO_3^y(R_2) = N×MD_3 = 4×6 = 24 (carry-out is zero at
	// this window).
	if got := a.BAO(2, 1, exampleWindow); got != 24 {
		t.Errorf("BAO_3^y = %d, want 24", got)
	}
}

func TestFig1BaselineBAT(t *testing.T) {
	a := exampleReference(t, false)
	// Eq. (11): BAS + min(BAO_3^y; s×BAS) with s=1 and no trailing +1
	// because τ2 is the lowest-priority task of core π_x.
	if got := a.BAT(1, exampleWindow); got != 56 {
		t.Errorf("BAT_2^x = %d, want 32 + min(24,32) = 56", got)
	}
}

func TestFig1PersistenceAwareBAS(t *testing.T) {
	a := exampleReference(t, true)
	// Eq. (15): MD_2 + M̂D_1(3) + ρ̂_{1,2,x}(3) + 3γ_{2,1,x}
	//         = 8 + 8 + 4 + 6 = 26, versus 32 for the baseline.
	if got := a.BAS(1, 0, exampleWindow); got != 26 {
		t.Errorf("B̂AS_2^x = %d, want 26", got)
	}
}

func TestFig1PersistenceAwareBAO(t *testing.T) {
	a := exampleReference(t, true)
	// Below Lemma 2: MD_3 + 3×MD_3^r = 9, versus 24 for the baseline.
	if got := a.BAO(2, 1, exampleWindow); got != 9 {
		t.Errorf("B̂AO_3^y = %d, want 9", got)
	}
}

func TestFig1PersistenceAwareBAT(t *testing.T) {
	a := exampleReference(t, true)
	if got := a.BAT(1, exampleWindow); got != 35 {
		t.Errorf("B̂AT_2^x = %d, want 26 + min(9,26) = 35", got)
	}
}

func TestFig1GammaMemoized(t *testing.T) {
	a := exampleReference(t, false)
	if got := a.gamma(1, 0, 0); got != 2 {
		t.Errorf("γ_{2,1,x} = %d, want 2", got)
	}
	// Second call hits the memo and must agree.
	if got := a.gamma(1, 0, 0); got != 2 {
		t.Errorf("memoized γ = %d, want 2", got)
	}
}

func TestFig1PlusOneRule(t *testing.T) {
	a := exampleReference(t, false)
	// τ1 has τ2 below it on core 0: +1 applies.
	if got := a.plus1(0, 0); got != 1 {
		t.Errorf("plus1(τ1) = %d, want 1", got)
	}
	// τ2 is the lowest-priority task of core 0: no +1.
	if got := a.plus1(1, 0); got != 0 {
		t.Errorf("plus1(τ2) = %d, want 0", got)
	}
	// τ3 is the lowest of core 1.
	if got := a.plus1(2, 1); got != 0 {
		t.Errorf("plus1(τ3) = %d, want 0", got)
	}
}

func TestFig1DominationOfLemma1(t *testing.T) {
	base := exampleReference(t, false)
	aware := exampleReference(t, true)
	for _, w := range []taskmodel.Time{1, 10, 40, 80, 100, 120, 500} {
		for _, prio := range []int{0, 1} {
			b := base.BAS(prio, 0, w)
			h := aware.BAS(prio, 0, w)
			if h > b {
				t.Errorf("window %d prio %d: B̂AS %d > BAS %d", w, prio, h, b)
			}
		}
		if h, b := aware.BAO(2, 1, w), base.BAO(2, 1, w); h > b {
			t.Errorf("window %d: B̂AO %d > BAO %d", w, h, b)
		}
	}
}
