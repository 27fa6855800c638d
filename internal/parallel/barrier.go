package parallel

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/obs"
)

// Barrier telemetry, recorded only while obs sampling is enabled: the time a
// participant spends inside Wait (arrival to release) and the Gosched yields
// it performed while parked. The disabled-path cost is one atomic bool load.
var (
	barrierWait = obs.NewHistogram("symspmv_barrier_wait_seconds",
		"Time a participant spends in a sampled spin-barrier crossing.",
		obs.DurationBuckets)
	barrierYields = obs.NewCounter("symspmv_barrier_yields_total",
		"Gosched yields performed by sampled spin-barrier waiters.")
)

// spinBudget bounds the busy-wait iterations a barrier waiter (and the caller
// waiting on the pool's countdown) performs before it starts yielding the
// processor. The value is deliberately modest: a barrier round-trip between
// phases of the same kernel costs well under a microsecond when every
// participant has its own core, so a waiter that has spun this long is almost
// certainly sharing a core with a participant that has not arrived yet, and
// holding the core only delays it further.
const spinBudget = 1 << 12

// spins is the one oversubscription rule: with more goroutines than
// processors every wait — barrier, countdown, hand-off — skips its spin.
func spins(budget int, oversubscribed bool) int {
	if oversubscribed {
		return 0
	}
	return budget
}

// poisoned is the generation value of a barrier one of whose participants
// will never arrive. Generations count up from zero and never reach it.
const poisoned = math.MaxUint64

// SpinBarrier is a sense-reversing barrier for a fixed set of n participants.
// Arrival is an atomic counter; release is a generation word that the last
// arriver bumps, so no participant ever passes through the scheduler between
// consecutive phases. Waiters spin for a short budget and then back off with
// runtime.Gosched; when oversubscribed they skip the spin.
//
// A SpinBarrier may be reused for any number of rounds, but every round must
// involve exactly the n participants it was created for.
type SpinBarrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint64
}

// NewSpinBarrier creates a barrier for n participants. n must be positive.
func NewSpinBarrier(n int) *SpinBarrier {
	if n <= 0 {
		panic(fmt.Sprintf("parallel: NewSpinBarrier(%d): size must be positive", n))
	}
	return &SpinBarrier{n: int32(n)}
}

// Wait blocks until all n participants have called Wait for the current
// round and reports true. The atomic counter and generation word carry
// release/acquire ordering, so writes made by any participant before Wait are
// visible to every participant after Wait returns. It reports false, without
// waiting for anyone, once the barrier is poisoned.
func (b *SpinBarrier) Wait() bool {
	return b.wait(spins(spinBudget, int(b.n) > runtime.GOMAXPROCS(0)))
}

// wait is Wait with the spin budget decided by the caller (the pool reads
// GOMAXPROCS once per dispatch, not once per crossing).
func (b *SpinBarrier) wait(budget int) bool {
	g := b.gen.Load()
	if g == poisoned {
		return false
	}
	sampled := obs.SamplingEnabled()
	var t0 int64
	if sampled {
		t0 = obs.Now()
	}
	var yields int64
	ok := true
	if b.count.Add(1) == b.n {
		// Last arriver: re-arm the counter for the next round, then release
		// the waiters. Only this goroutine runs between the two stores (all
		// others are blocked on gen), so the reset cannot race with a
		// next-round arrival. The swap fails only against poison.
		b.count.Store(0)
		ok = b.gen.CompareAndSwap(g, g+1)
	} else {
		for spun := 0; ; spun++ {
			if v := b.gen.Load(); v != g {
				ok = v != poisoned
				break
			}
			if spun >= budget {
				runtime.Gosched()
				yields++
			}
		}
	}
	if sampled {
		barrierWait.Observe(float64(obs.Now()-t0) / 1e9)
		if yields > 0 {
			barrierYields.Add(yields)
		}
	}
	return ok
}

// poison releases every current and future waiter with false: a participant
// has died and will not arrive.
func (b *SpinBarrier) poison() { b.gen.Store(poisoned) }

// rearm makes a poisoned barrier usable again. No participant may be inside.
func (b *SpinBarrier) rearm() {
	b.count.Store(0)
	b.gen.Store(0)
}
