package parallel

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// testList is compute → reduction → compute: worker 0 sleeps in the first
// phase, the last worker in the second.
func testList(p *Pool, hook func(*Sample)) *PhaseList {
	last := p.Size() - 1
	return &PhaseList{
		Metrics: NewOpMetrics("symspmv_test", "sampler"),
		Hook:    hook,
		Phases: []Phase{
			ComputePhase("test/a", func(tid int) {
				if tid == 0 {
					time.Sleep(2 * time.Millisecond)
				}
			}),
			ReductionPhase("test/b", func(tid int) {
				if tid == last {
					time.Sleep(time.Millisecond)
				}
			}),
			ComputePhase("test/c", func(int) {}),
		},
	}
}

// TestSampledRunBreakdown: a sampled run files each phase's slowest worker
// under the phase's own kind, accounts for the whole wall time, feeds the
// list's metrics and hook once, and synchronizes like the untimed run — one
// hand-off, at any GOMAXPROCS.
func TestSampledRunBreakdown(t *testing.T) {
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		prev := runtime.GOMAXPROCS(procs)
		p := NewPool(4)
		var got []Sample
		l := testList(p, func(s *Sample) { got = append(got, *s) })
		ops0, wall0 := l.Metrics.Ops.Value(), l.Metrics.Wall.Count()

		p.RunPhaseList(l) // sampling off: untimed
		if len(got) != 0 || l.Metrics.Ops.Value() != ops0 {
			t.Fatalf("GOMAXPROCS %d: unsampled run produced a sample", procs)
		}
		p.ResetHandoffs()
		pt := p.RunSampled(l)
		if h := p.Handoffs(); h != 1 {
			t.Errorf("GOMAXPROCS %d: sampled run cost %d handoffs, want 1", procs, h)
		}
		obs.SetSampling(true)
		p.RunPhaseList(l)
		obs.SetSampling(false)
		p.Close()
		runtime.GOMAXPROCS(prev)

		if len(got) != 2 || l.Metrics.Ops.Value()-ops0 != 2 || l.Metrics.Wall.Count()-wall0 != 2 {
			t.Fatalf("GOMAXPROCS %d: %d hook calls, %d ops, want 2 each", procs, len(got), l.Metrics.Ops.Value()-ops0)
		}
		if got[0].PT != pt {
			t.Errorf("GOMAXPROCS %d: RunSampled returned %+v, hook saw %+v", procs, pt, got[0].PT)
		}
		for i, s := range got {
			pt := s.PT
			if pt.Phases != 3 || pt.Ops != 1 || s.EndNs-s.StartNs != int64(pt.Wall) {
				t.Errorf("GOMAXPROCS %d sample %d: %+v over [%d, %d]", procs, i, pt, s.StartNs, s.EndNs)
			}
			if pt.Compute < 2*time.Millisecond || pt.Reduction < time.Millisecond {
				t.Errorf("GOMAXPROCS %d sample %d: compute %v, reduction %v; want the 2 ms sleep under compute and the 1 ms one under reduction", procs, i, pt.Compute, pt.Reduction)
			}
			if pt.Barrier <= 0 || pt.Compute+pt.Reduction+pt.Barrier != pt.Wall {
				t.Errorf("GOMAXPROCS %d sample %d: compute+reduction+barrier = %v, wall %v", procs, i, pt.Compute+pt.Reduction+pt.Barrier, pt.Wall)
			}
		}
	}
}

// TestSerialFraction: a phase counts as serial exactly when no two workers'
// intervals overlap, and the gauge is the serial share of all sampled
// multi-worker phases.
func TestSerialFraction(t *testing.T) {
	for _, tc := range []struct {
		starts, ends []int64
		want         bool
	}{
		{[]int64{0, 10}, []int64{10, 20}, true}, // back to back
		{[]int64{10, 0}, []int64{20, 5}, true},  // either order
		{[]int64{0, 5}, []int64{10, 20}, false}, // overlap
		{[]int64{0, 3}, []int64{10, 4}, false},  // nested
		{[]int64{0, 10, 20}, []int64{5, 15, 25}, true},
		{[]int64{0, 10, 12}, []int64{5, 15, 25}, false},
	} {
		if got := disjoint(tc.starts, tc.ends); got != tc.want {
			t.Errorf("disjoint(%v, %v) = %v, want %v", tc.starts, tc.ends, got, tc.want)
		}
	}
	p := NewPool(2)
	defer p.Close()
	n0 := sampledPhases.Load()
	p.RunSampled(testList(p, nil))
	if got := sampledPhases.Load() - n0; got != 3 {
		t.Errorf("one 3-phase sample on 2 workers counted %d multi-worker phases", got)
	}
	if f := serialFraction.Value(); f < 0 || f > 1 || f != float64(serialPhases.Load())/float64(sampledPhases.Load()) {
		t.Errorf("serial fraction gauge %g, counters %d/%d", f, serialPhases.Load(), sampledPhases.Load())
	}
}

// TestHandoffOverlapsTheHalves is benchmark/README.md's "3–17 % of Pool.Run
// calls whose halves never overlap" as a test: with the caller working in the
// pool and the worker spinning on the generation word, under 1 % of 20 000
// two-worker operations of a 20 µs body run one half after the other. What is
// left is the box taking a processor away for longer than the body, so a
// round counts against the pool only if the process was given both processors
// (CPU time ≥ 1.9 × wall; both participants spin throughout), and a round
// that clears the bar settles it.
func TestHandoffOverlapsTheHalves(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("two halves cannot overlap on one processor")
	}
	p := NewPool(2)
	defer p.Close()
	l := &PhaseList{Phases: []Phase{ComputePhase("test/20us", func(int) {
		for t0 := obs.Now(); obs.Now()-t0 < 20_000; {
		}
	})}}
	obs.SetSampling(true)
	defer obs.SetSampling(false)
	undisturbed := 0
	for round := 0; round < 5; round++ {
		n0, serial0, cpu0, wall0 := sampledPhases.Load(), serialPhases.Load(), cpuTime(t), time.Now()
		for i := 0; i < 20000; i++ {
			p.RunPhaseList(l)
		}
		n, serial := sampledPhases.Load()-n0, serialPhases.Load()-serial0
		share := (cpuTime(t) - cpu0).Seconds() / time.Since(wall0).Seconds()
		t.Logf("round %d: %d of %d two-worker phases ran serially, CPU/wall %.2f (symspmv_pool_serial_fraction %.4f)",
			round, serial, n, share, serialFraction.Value())
		if n != 20000 {
			t.Fatalf("sampled %d phases, want 20000", n)
		}
		if float64(serial) < 0.01*float64(n) {
			return
		}
		if share >= 1.9 {
			undisturbed++
		}
	}
	if undisturbed == 0 {
		t.Skip("the box never gave the process two processors")
	}
	t.Errorf("1 %% or more of the phases ran serially in every round, %d of them undisturbed", undisturbed)
}
