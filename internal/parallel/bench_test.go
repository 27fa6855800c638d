package parallel

import (
	"fmt"
	"runtime"
	"testing"
)

// raiseProcs lifts GOMAXPROCS to p for the benchmark so the spinning hand-off
// is what is measured even on small CI machines.
func raiseProcs(b *testing.B, p int) {
	if prev := runtime.GOMAXPROCS(0); prev < p {
		runtime.GOMAXPROCS(p)
		b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// BenchmarkPoolRun measures the round-trip latency of one hand-off (bump the
// generation word, run tid 0, wait for the countdown) at the thread counts
// the Fig. 7/8 dispatch-latency discussion cares about. The body is empty, so
// ns/op is pure synchronization cost.
func BenchmarkPoolRun(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			pool := NewPool(p)
			defer pool.Close()
			noop := func(int) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.Run(noop)
			}
		})
	}
}

// BenchmarkRunPhases measures a two-phase chain — the multiply→reduce shape
// of every symmetric SpM×V: one hand-off plus one barrier round.
func BenchmarkRunPhases(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			raiseProcs(b, p)
			pool := NewPool(p)
			defer pool.Close()
			noop := func(int) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.RunPhases(noop, noop)
			}
		})
	}
}

// BenchmarkSpinBarrier measures a bare barrier round among p resident
// goroutines — the marginal cost RunPhases pays per extra phase.
func BenchmarkSpinBarrier(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			raiseProcs(b, p)
			pool := NewPool(p)
			defer pool.Close()
			bar := NewSpinBarrier(p)
			b.ResetTimer()
			pool.Run(func(int) {
				for i := 0; i < b.N; i++ {
					bar.Wait()
				}
			})
		})
	}
}
