package sim

import (
	"fmt"

	"repro/internal/core"
)

// The simulated bus arbiters (core.Arbiter values; core.Perfect has
// no bus to simulate and Run rejects it). The semantics mirror the
// assumptions under which the analysis equations are sound:
//
//   - FP: work-conserving; the pending request whose task has the
//     highest priority wins; a transaction in service is never
//     preempted.
//   - RR: work-conserving round robin over cores with up to s
//     consecutive services per core's turn; cores without a pending
//     request are skipped instantly.
//   - TDMA: non-work-conserving, demand-driven slotting: when the
//     bus is free, the turn owner's request is served if present;
//     otherwise the bus idles for a full slot (d_mem) and the turn
//     advances — other cores cannot steal the unused slot. Each core
//     owns s consecutive slots per cycle of NumCores×s, so a request
//     waits at most (NumCores−1)·s slots plus one in-service
//     transaction, exactly Eq. (9)'s accounting.
//   - Regulated: work-conserving MemGuard-style bandwidth
//     regulation: every core's budget of regQ accesses refills every
//     regP cycles; cores with budget left have strict priority over
//     exhausted ones, each class served round-robin one access at a
//     time, and exhausted cores reclaim otherwise-idle bandwidth. A
//     budgeted grant spends one unit of the granting core's budget.
//   - ParAware: work-conserving round robin over cores, one
//     access per turn — the single-outstanding-request arbitration the
//     parallelism-aware per-access bound models (each access waits for
//     at most one in-flight request per other core).

// request is one pending bus transaction: core wants block, issued by
// the task with the given priority.
type request struct {
	core     int
	block    int
	priority int
}

// bus models the shared memory bus: at most one transaction in
// service, at most one pending request per core.
type bus struct {
	policy   core.Arbiter
	numCores int
	slotSize int
	dmem     int64

	pending []*request // indexed by core, nil if none

	// in-service transaction
	busy      bool
	current   request
	remaining int64

	// RR/TDMA/ParAware turn state (also the budgeted-class pointer of
	// the regulated bus)
	turnCore  int
	turnUsed  int
	idleSlots int64 // TDMA: cycles left of a deliberately idle slot

	// Regulated state: per-core budgets, refill parameters, the cycle
	// counter driving replenishment, the reclaim-class round-robin
	// pointer (advanced only by reclaim grants, so budgeted traffic
	// cannot reorder the exhausted cores among themselves), and whether
	// the in-service transaction was a reclaim grant.
	regQ        int64
	regP        int64
	budget      []int64
	now         int64
	reclaimTurn int
	curReclaim  bool

	// stats
	served   int64
	busyTime int64
	idleHeld int64 // TDMA: cycles idled away while demand was pending
}

func newBus(policy core.Arbiter, numCores, slotSize int, dmem, regQ, regP int64) *bus {
	b := &bus{
		policy:   policy,
		numCores: numCores,
		slotSize: slotSize,
		dmem:     dmem,
		regQ:     regQ,
		regP:     regP,
		pending:  make([]*request, numCores),
	}
	if policy == core.Regulated {
		b.budget = make([]int64, numCores)
	}
	return b
}

// submit registers a request for the core; at most one may be
// outstanding per core.
func (b *bus) submit(r request) {
	if b.pending[r.core] != nil {
		panic(fmt.Sprintf("sim: core %d already has a pending bus request", r.core))
	}
	b.pending[r.core] = &r
}

// cancel withdraws the core's pending request, if any; an in-service
// transaction cannot be cancelled. Reports whether a request was
// withdrawn.
func (b *bus) cancel(core int) bool {
	if b.pending[core] == nil {
		return false
	}
	b.pending[core] = nil
	return true
}

// inService reports whether a transaction for the core is currently on
// the bus.
func (b *bus) inService(core int) bool {
	return b.busy && b.current.core == core
}

func (b *bus) hasPending() bool {
	for _, r := range b.pending {
		if r != nil {
			return true
		}
	}
	return false
}

// advanceTurn moves RR/TDMA arbitration to the next core's slot group.
func (b *bus) advanceTurn() {
	b.turnCore = (b.turnCore + 1) % b.numCores
	b.turnUsed = 0
}

// tick advances the bus by one cycle. A request granted in this cycle
// receives the cycle as its first service cycle, so back-to-back
// transactions leave no gap and a request submitted earlier in the
// same simulation cycle starts service immediately. The completed
// request, if the in-flight transaction finished at the end of this
// cycle, is returned.
// slotLimit is the number of consecutive services per turn: the
// configured slot size for RR/TDMA, one for the parallelism-aware bus.
func (b *bus) slotLimit() int {
	if b.policy == core.ParAware {
		return 1
	}
	return b.slotSize
}

// replenish refills every core's budget at regulation period
// boundaries (cycle 0 starts every core fully budgeted) and advances
// the regulation clock. Called once per cycle, before arbitration.
func (b *bus) replenish() {
	if b.policy != core.Regulated {
		return
	}
	if b.now%b.regP == 0 {
		for c := range b.budget {
			b.budget[c] = b.regQ
		}
	}
	b.now++
}

func (b *bus) tick() *request {
	b.replenish()
	// TDMA: an idle slot in progress blocks the bus even with demand
	// pending (non-work-conserving).
	if b.idleSlots > 0 {
		if b.hasPending() {
			b.idleHeld++
		}
		b.idleSlots--
		if b.idleSlots == 0 {
			b.advanceTurn()
		}
		return nil
	}
	if !b.busy {
		b.grant()
		if b.idleSlots > 0 {
			// grant decided to burn a TDMA slot; consume its first cycle.
			if b.hasPending() {
				b.idleHeld++
			}
			b.idleSlots--
			if b.idleSlots == 0 {
				b.advanceTurn()
			}
			return nil
		}
	}
	if !b.busy {
		return nil
	}
	b.busyTime++
	b.remaining--
	if b.remaining > 0 {
		return nil
	}
	b.busy = false
	done := b.current
	switch b.policy {
	case core.RR, core.TDMA, core.ParAware:
		b.turnUsed++
		if b.turnUsed >= b.slotLimit() {
			b.advanceTurn()
		}
	case core.Regulated:
		// Slot-1 round robin within the class the grant was made under;
		// the other class's pointer is untouched.
		if b.curReclaim {
			b.reclaimTurn = (b.reclaimTurn + 1) % b.numCores
		} else {
			b.advanceTurn()
		}
	}
	return &done
}

// grant selects the next transaction according to the policy; for
// TDMA it may instead schedule an idle slot.
func (b *bus) grant() {
	switch b.policy {
	case core.FP:
		best := -1
		for c, r := range b.pending {
			if r == nil {
				continue
			}
			if best == -1 || r.priority < b.pending[best].priority {
				best = c
			}
		}
		if best >= 0 {
			b.start(best)
		}
	case core.RR, core.ParAware:
		if !b.hasPending() {
			return
		}
		// Work-conserving: skip turn owners without requests instantly.
		for scanned := 0; scanned < b.numCores; scanned++ {
			if b.pending[b.turnCore] != nil {
				b.start(b.turnCore)
				return
			}
			b.advanceTurn()
		}
	case core.Regulated:
		// Budgeted requests first, round-robin from the budgeted turn
		// pointer; a grant spends one budget unit.
		for scanned := 0; scanned < b.numCores; scanned++ {
			c := (b.turnCore + scanned) % b.numCores
			if b.pending[c] != nil && b.budget[c] > 0 {
				b.turnCore = c
				b.turnUsed = 0
				b.budget[c]--
				b.curReclaim = false
				b.start(c)
				return
			}
		}
		// No budgeted demand: exhausted cores reclaim the bandwidth,
		// round-robin on their own pointer (work-conserving).
		for scanned := 0; scanned < b.numCores; scanned++ {
			c := (b.reclaimTurn + scanned) % b.numCores
			if b.pending[c] != nil {
				b.reclaimTurn = c
				b.curReclaim = true
				b.start(c)
				return
			}
		}
	case core.TDMA:
		if !b.hasPending() {
			// No demand: hold the turn open until a request arrives.
			return
		}
		if b.pending[b.turnCore] != nil {
			b.start(b.turnCore)
			return
		}
		// The owner has no demand but others do: burn one full slot.
		b.idleSlots = b.dmem
	default:
		panic(fmt.Sprintf("sim: no bus model for arbiter %v", b.policy))
	}
}

func (b *bus) start(core int) {
	b.current = *b.pending[core]
	b.pending[core] = nil
	b.busy = true
	b.remaining = b.dmem
	b.served++
}
