package parallel

import (
	"os"
	"runtime"
	"strconv"
	"strings"
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
// two-worker operations of a 20 µs body run one half after the other, in one
// of five rounds. What is left is the box keeping a thread of this process
// off its processor for longer than the body. So a round counts against the
// pool only if its serial phases exceed 1 % by more than this process's run
// delay in the round — the time its threads waited, runnable, for a
// processor (/proc/self/task/*/schedstat) — could split, one phase per 20 µs
// of it. A round under 1 % settles it. Five rounds are played; while every
// round so far was excused, rounds go on until one is not — a package test
// binary beside this one in `go test ./...` can hold a processor for seconds
// — and only if quietRetry elapses with every round excused does it skip.
func TestHandoffOverlapsTheHalves(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("two halves cannot overlap on one processor")
	}
	if _, ok := runDelay(); !ok {
		t.Skip("no per-thread schedstat to read the run delay from")
	}
	const body, ops = 20 * time.Microsecond, 20000
	p := NewPool(2)
	defer p.Close()
	l := &PhaseList{Phases: []Phase{ComputePhase("test/20us", func(int) {
		for t0 := obs.Now(); obs.Now()-t0 < int64(body); {
		}
	})}}
	obs.SetSampling(true)
	defer obs.SetSampling(false)
	const quietRetry = 30 * time.Second
	start := time.Now()
	charged := 0
	for round := 0; round < 5 || charged == 0 && time.Since(start) < quietRetry; round++ {
		n0, serial0 := sampledPhases.Load(), serialPhases.Load()
		delay0, _ := runDelay()
		for i := 0; i < ops; i++ {
			p.RunPhaseList(l)
		}
		delay, _ := runDelay()
		n, serial := sampledPhases.Load()-n0, serialPhases.Load()-serial0
		excused := int64((delay - delay0) / body)
		t.Logf("round %d: %d of %d two-worker phases ran serially, run delay %v excuses %d (symspmv_pool_serial_fraction %.4f)",
			round, serial, n, delay-delay0, excused, serialFraction.Value())
		if n != ops {
			t.Fatalf("sampled %d phases, want %d", n, ops)
		}
		if serial < ops/100 {
			return
		}
		if serial-excused >= ops/100 {
			charged++
		}
	}
	if charged == 0 {
		t.Skip("the run delay of every round explains its serial phases")
	}
	t.Errorf("1 %% or more of the phases ran serially in every round, beyond the run delay in %d of them", charged)
}

// runDelay reports the time this process's threads have waited, runnable, for
// a processor: the second field of each thread's schedstat. ok is false where
// the kernel does not report it.
func runDelay() (d time.Duration, ok bool) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return 0, false
	}
	for _, task := range tasks {
		b, err := os.ReadFile("/proc/self/task/" + task.Name() + "/schedstat")
		if err != nil {
			continue // the thread ended
		}
		f := strings.Fields(string(b))
		if len(f) < 2 {
			return 0, false
		}
		ns, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, false
		}
		d += time.Duration(ns)
	}
	return d, true
}
