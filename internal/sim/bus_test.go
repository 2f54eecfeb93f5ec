package sim

import (
	"testing"

	"repro/internal/core"
)

// drive advances the bus n cycles, recording completions per core.
func drive(b *bus, n int) []request {
	var done []request
	for i := 0; i < n; i++ {
		if d := b.tick(); d != nil {
			done = append(done, *d)
		}
	}
	return done
}

func TestFPBusGrantsHighestPriority(t *testing.T) {
	b := newBus(core.FP, 3, 1, 4, 0, 0)
	b.submit(request{core: 0, block: 1, priority: 5})
	b.submit(request{core: 1, block: 2, priority: 1}) // highest
	b.submit(request{core: 2, block: 3, priority: 3})
	done := drive(b, 12)
	if len(done) != 3 {
		t.Fatalf("completions = %d, want 3", len(done))
	}
	if done[0].core != 1 || done[1].core != 2 || done[2].core != 0 {
		t.Fatalf("service order = %v, want cores 1,2,0", done)
	}
}

func TestFPBusNonPreemptiveService(t *testing.T) {
	b := newBus(core.FP, 2, 1, 5, 0, 0)
	b.submit(request{core: 0, block: 1, priority: 9})
	drive(b, 2) // low-priority transaction in service
	b.submit(request{core: 1, block: 2, priority: 0})
	done := drive(b, 10)
	if len(done) != 2 || done[0].core != 0 {
		t.Fatalf("in-service transaction was not completed first: %v", done)
	}
}

func TestBackToBackTransactionsNoGap(t *testing.T) {
	b := newBus(core.FP, 2, 1, 5, 0, 0)
	b.submit(request{core: 0, block: 1, priority: 0})
	b.submit(request{core: 1, block: 2, priority: 1})
	drive(b, 10)
	if b.busyTime != 10 {
		t.Fatalf("busy %d of 10 cycles, want 10 (no idle gap between transactions)", b.busyTime)
	}
}

func TestRRSkipsIdleCoresInstantly(t *testing.T) {
	b := newBus(core.RR, 4, 2, 3, 0, 0)
	// Only core 3 has demand; it must be served immediately even though
	// the turn pointer starts at core 0.
	b.submit(request{core: 3, block: 1, priority: 0})
	done := drive(b, 3)
	if len(done) != 1 || done[0].core != 3 {
		t.Fatalf("RR did not skip idle cores: %v (busy %d)", done, b.busyTime)
	}
}

func TestRRSlotQuota(t *testing.T) {
	// s=2: core 0 gets at most two consecutive services before core 1.
	b := newBus(core.RR, 2, 2, 1, 0, 0)
	b.submit(request{core: 0, block: 1, priority: 0})
	b.submit(request{core: 1, block: 9, priority: 1})
	var order []int
	for i := 0; i < 6; i++ {
		if d := b.tick(); d != nil {
			order = append(order, d.core)
			// Core 0 instantly re-requests, core 1 only once.
			if d.core == 0 {
				b.submit(request{core: 0, block: 1, priority: 0})
			}
		}
	}
	// Expected: 0,0 (quota), then 1, then 0,0...
	want := []int{0, 0, 1, 0, 0, 0}
	for i := range want {
		if i >= len(order) {
			t.Fatalf("order = %v, want prefix %v", order, want)
		}
		if i < 3 && order[i] != want[i] {
			t.Fatalf("order = %v, want prefix [0 0 1]", order)
		}
	}
}

func TestTDMAIdlesUnusedSlot(t *testing.T) {
	// Non-work-conserving: core 1's request must wait for core 0's idle
	// slot to elapse.
	b := newBus(core.TDMA, 2, 1, 4, 0, 0)
	b.submit(request{core: 1, block: 7, priority: 0})
	done := drive(b, 4)
	if len(done) != 0 {
		t.Fatalf("TDMA served during the owner's idle slot: %v", done)
	}
	done = drive(b, 4)
	if len(done) != 1 || done[0].core != 1 {
		t.Fatalf("TDMA did not serve after the idle slot: %v", done)
	}
	if b.idleHeld == 0 {
		t.Error("idleHeld stat not recorded")
	}
}

func TestTDMAWorstCaseWaitBound(t *testing.T) {
	// A request never waits more than (cores−1)·s slots plus one
	// in-flight transaction.
	cores, s, dmem := 4, 2, int64(3)
	b := newBus(core.TDMA, cores, s, dmem, 0, 0)
	// Saturate every other core so slots are used, then measure core
	// 2's wait.
	submitAll := func() {
		for c := 0; c < cores; c++ {
			if c != 2 && b.pending[c] == nil && !(b.busy && b.current.core == c) {
				b.submit(request{core: c, block: c, priority: c})
			}
		}
	}
	submitAll()
	drive(b, 1) // start someone
	b.submit(request{core: 2, block: 99, priority: 0})
	bound := (int64(cores-1)*int64(s) + 2) * dmem // (m−1)s slots + in-flight + own service
	waited := int64(0)
	for waited = 0; waited <= bound+1; waited++ {
		submitAll()
		if d := b.tick(); d != nil && d.core == 2 {
			break
		}
	}
	if waited > bound {
		t.Fatalf("core 2 waited %d cycles, Eq. (9)-style bound is %d", waited, bound)
	}
}

func TestParAwareServesOneAccessPerTurn(t *testing.T) {
	// Slot size 3 is configured but must be ignored: the
	// parallelism-aware bus alternates single accesses.
	b := newBus(core.ParAware, 2, 3, 1, 0, 0)
	b.submit(request{core: 0, block: 1, priority: 0})
	b.submit(request{core: 1, block: 9, priority: 1})
	var order []int
	for i := 0; i < 6; i++ {
		if d := b.tick(); d != nil {
			order = append(order, d.core)
			b.submit(request{core: d.core, block: 1, priority: d.priority})
		}
	}
	want := []int{0, 1, 0, 1, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v (strict alternation)", order, want)
		}
	}
}

func TestRegulatedBudgetedPriorityAndReclaim(t *testing.T) {
	// Q=1, P=100, d_mem=1: each core gets one budgeted access per
	// period. Core 0 floods the bus; once its budget is spent, core 1's
	// budgeted request must preempt further grants to core 0, and core
	// 0's surplus is served only as reclaim afterwards.
	b := newBus(core.Regulated, 2, 2, 1, 1, 100)
	b.submit(request{core: 0, block: 1, priority: 0})
	var order []int
	for i := 0; i < 4; i++ {
		if d := b.tick(); d != nil {
			order = append(order, d.core)
			if d.core == 0 {
				b.submit(request{core: 0, block: 1, priority: 0})
			}
		}
		if i == 0 {
			// Arrives while core 0 is exhausted but re-requesting.
			b.submit(request{core: 1, block: 9, priority: 1})
		}
	}
	want := []int{0, 1, 0, 0}
	if len(order) != len(want) {
		t.Fatalf("completions = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v (budgeted request must beat exhausted core)", order, want)
		}
	}
}

func TestRegulatedBudgetReplenishes(t *testing.T) {
	// Q=2, P=10, d_mem=1, one core: after exhausting its budget the
	// core still gets served (reclaim, work-conserving), and the refill
	// at the period boundary restores budgeted service.
	b := newBus(core.Regulated, 1, 2, 1, 2, 10)
	served := 0
	for i := 0; i < 25; i++ {
		if b.pending[0] == nil && !b.busy {
			b.submit(request{core: 0, block: 1, priority: 0})
		}
		if d := b.tick(); d != nil {
			served++
		}
	}
	if served < 20 {
		t.Fatalf("served %d of ~24 possible accesses; reclaim must keep the bus work-conserving", served)
	}
	if b.budget[0] != 0 {
		t.Fatalf("budget = %d after saturation, want 0 (spent each period)", b.budget[0])
	}
}

func TestCancelPendingRequest(t *testing.T) {
	b := newBus(core.FP, 2, 1, 5, 0, 0)
	b.submit(request{core: 0, block: 1, priority: 0})
	drive(b, 1) // core 0 in service
	b.submit(request{core: 1, block: 2, priority: 1})
	if !b.cancel(1) {
		t.Fatal("cancel of pending request failed")
	}
	if b.cancel(1) {
		t.Fatal("double cancel succeeded")
	}
	if b.cancel(0) {
		t.Fatal("cancel of in-service transaction succeeded")
	}
	done := drive(b, 10)
	if len(done) != 1 || done[0].core != 0 {
		t.Fatalf("cancelled request was served: %v", done)
	}
}

func TestSubmitTwicePanics(t *testing.T) {
	b := newBus(core.FP, 1, 1, 5, 0, 0)
	b.submit(request{core: 0, block: 1, priority: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("double submit did not panic")
		}
	}()
	b.submit(request{core: 0, block: 2, priority: 0})
}

func TestInService(t *testing.T) {
	b := newBus(core.FP, 2, 1, 5, 0, 0)
	if b.inService(0) {
		t.Fatal("idle bus reports in-service")
	}
	b.submit(request{core: 0, block: 1, priority: 0})
	drive(b, 1)
	if !b.inService(0) || b.inService(1) {
		t.Fatal("inService core attribution wrong")
	}
}
