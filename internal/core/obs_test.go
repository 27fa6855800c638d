package core

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
)

func TestPhaseTimesAddAccumulatesOps(t *testing.T) {
	var acc PhaseTimes
	acc.Add(PhaseTimes{Compute: 10, Wall: 12, Phases: 2, Ops: 1})
	acc.Add(PhaseTimes{Compute: 20, Wall: 22, Phases: 2, Ops: 1})
	if acc.Ops != 2 {
		t.Fatalf("Ops = %d after two single-op adds, want 2", acc.Ops)
	}
	if acc.Compute != 30 || acc.Wall != 34 || acc.Phases != 2 {
		t.Fatalf("accumulated breakdown wrong: %+v", acc)
	}
	// A hand-built breakdown without Ops set counts as one operation, and a
	// pre-accumulated one contributes its own count.
	acc.Add(PhaseTimes{Wall: 1})
	acc.Add(PhaseTimes{Wall: 1, Ops: 3})
	if acc.Ops != 6 {
		t.Fatalf("Ops = %d, want 6 (2 + implicit 1 + 3)", acc.Ops)
	}
}

// TestTimedMulVecInvariant: per operation, the critical-path parts and the
// wall clock must agree — when barrier time is attributed, the three parts
// sum exactly to the wall; when it is not, the parts can only exceed the
// wall (per-phase maxima over workers can overlap the coordinator's view).
func TestTimedMulVecInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := randomSymmetric(t, rng, 2500, 6)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	x := make([]float64, s.N)
	y := make([]float64, s.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
		k := NewKernel(s, method, pool)
		for it := 0; it < 3; it++ {
			pt := k.TimedMulVec(x, y)
			if pt.Ops != 1 {
				t.Fatalf("%v: Ops = %d, want 1", method, pt.Ops)
			}
			if pt.Compute <= 0 || pt.Reduction < 0 || pt.Barrier < 0 || pt.Wall <= 0 {
				t.Fatalf("%v: implausible breakdown %+v", method, pt)
			}
			worked := pt.Compute + pt.Reduction
			if pt.Barrier > 0 {
				if worked+pt.Barrier != pt.Wall {
					t.Fatalf("%v: compute+reduction+barrier = %v, wall = %v",
						method, worked+pt.Barrier, pt.Wall)
				}
			} else if worked < pt.Wall {
				t.Fatalf("%v: zero barrier but parts %v < wall %v", method, worked, pt.Wall)
			}
		}
	}
}

// TestColoredZeroReductionObserved: the colored kernel's "no reduction
// phase" claim, read back through the metrics registry — every sampled
// operation lands an exact zero in the reduction histogram while compute
// accumulates real time.
func TestColoredZeroReductionObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := randomSymmetric(t, rng, 2000, 5)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	x := make([]float64, s.N)
	y := make([]float64, s.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	obs.SetSampling(true)
	t.Cleanup(func() { obs.SetSampling(false) })

	mo := phaseObs[Colored]
	ops0 := mo.Ops.Value()
	redCount0 := mo.Reduction.Count()
	compSum0 := mo.Compute.Sum()

	k := NewKernel(s, Colored, pool)
	const iters = 5
	for i := 0; i < iters; i++ {
		k.MulVec(x, y) // sampling on: routed through the timed path
	}

	if got := mo.Ops.Value() - ops0; got != iters {
		t.Fatalf("ops counter advanced by %d, want %d", got, iters)
	}
	if got := mo.Reduction.Count() - redCount0; got != iters {
		t.Fatalf("reduction histogram gained %d observations, want %d", got, iters)
	}
	if mo.Reduction.Sum() != 0 {
		t.Fatalf("colored reduction histogram sum = %g, want exactly 0", mo.Reduction.Sum())
	}
	if d := mo.Compute.Sum() - compSum0; d <= 0 {
		t.Fatalf("compute histogram sum advanced by %g, want > 0", d)
	}
}

// TestMulVecZeroAlloc is the disabled-sampling hot-path contract: with the
// phase lists prebuilt, repeated MulVec/MulVecDot calls allocate nothing for
// every reduction method.
func TestMulVecZeroAlloc(t *testing.T) {
	if obs.SamplingEnabled() {
		t.Fatal("sampling unexpectedly enabled")
	}
	rng := rand.New(rand.NewSource(23))
	m := randomSymmetric(t, rng, 1200, 4)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	x := make([]float64, s.N)
	y := make([]float64, s.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
		k := NewKernel(s, method, pool)
		k.MulVec(x, y)    // warm up
		k.MulVecDot(x, y) // allocates the dot buffer + fused phase list once
		if a := testing.AllocsPerRun(20, func() { k.MulVec(x, y) }); a != 0 {
			t.Errorf("%v: MulVec allocates %v allocs/op, want 0", method, a)
		}
		if a := testing.AllocsPerRun(20, func() { k.MulVecDot(x, y) }); a != 0 {
			t.Errorf("%v: MulVecDot allocates %v allocs/op, want 0", method, a)
		}
	}
}

func TestPhaseTimesPerOp(t *testing.T) {
	acc := PhaseTimes{Compute: 400, Reduction: 80, Barrier: 40, Wall: 520, Phases: 3, Ops: 4}
	per := acc.PerOp()
	if per.Compute != 100 || per.Reduction != 20 || per.Barrier != 10 || per.Wall != 130 {
		t.Fatalf("PerOp breakdown wrong: %+v", per)
	}
	if per.Ops != 1 || per.Phases != 3 {
		t.Fatalf("PerOp Ops/Phases = %d/%d, want 1/3", per.Ops, per.Phases)
	}
	// Ops-less hand-built values pass through as a single op instead of
	// dividing by zero — the averaging-without-Ops hazard the audit found.
	raw := PhaseTimes{Wall: 77}
	if per := raw.PerOp(); per.Wall != 77 || per.Ops != 1 {
		t.Fatalf("PerOp on Ops=0 input = %+v, want unchanged with Ops=1", per)
	}
}

// TestSampleHookDeliversPhaseSample: the attribution feed — every sampled op
// hands the hook its method, op class, and the phase breakdown it observed.
func TestSampleHookDeliversPhaseSample(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := randomSymmetric(t, rng, 1500, 5)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	x := make([]float64, s.N)
	y := make([]float64, s.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	obs.SetSampling(true)
	t.Cleanup(func() { obs.SetSampling(false) })

	k := NewKernel(s, Indexed, pool)
	var got []PhaseSample
	k.SetSampleHook(func(ps PhaseSample) { got = append(got, ps) })
	k.MulVec(x, y)
	k.MulVecDot(x, y)
	if len(got) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(got))
	}
	for i, want := range []OpClass{OpSpMV, OpSpMVDot} {
		ps := got[i]
		if ps.Op != want || ps.Method != Indexed || ps.NV != 1 {
			t.Fatalf("sample %d = {%v %v nv=%d}, want {%v indexed nv=1}", i, ps.Method, ps.Op, ps.NV, want)
		}
		if ps.PT.Ops != 1 || ps.PT.Wall <= 0 {
			t.Fatalf("sample %d phase times implausible: %+v", i, ps.PT)
		}
		if ps.EndNs <= ps.StartNs {
			t.Fatalf("sample %d span [%d, %d] not increasing", i, ps.StartNs, ps.EndNs)
		}
	}
}

// TestMulVecZeroAllocWithAttribHook: binding an attribution hook must not
// cost the disabled-sampling hot path its zero-allocation contract — the
// hook only fires on the sampled (timed) path.
func TestMulVecZeroAllocWithAttribHook(t *testing.T) {
	if obs.SamplingEnabled() {
		t.Fatal("sampling unexpectedly enabled")
	}
	rng := rand.New(rand.NewSource(26))
	m := randomSymmetric(t, rng, 1200, 4)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	x := make([]float64, s.N)
	y := make([]float64, s.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	k := NewKernel(s, Indexed, pool)
	fired := false
	k.SetSampleHook(func(PhaseSample) { fired = true })
	k.MulVec(x, y) // warm up
	if a := testing.AllocsPerRun(20, func() { k.MulVec(x, y) }); a != 0 {
		t.Errorf("MulVec with hook bound allocates %v allocs/op, want 0", a)
	}
	if fired {
		t.Error("hook fired with sampling disabled")
	}
}

// BenchmarkMulVecHotPath reports allocs/op for the disabled-sampling path —
// the CI-visible form of the zero-allocation budget.
func BenchmarkMulVecHotPath(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	m := randomSymmetric(b, rng, 5000, 8)
	s, err := FromCOO(m)
	if err != nil {
		b.Fatal(err)
	}
	pool := parallel.NewPool(parallel.DefaultThreads())
	defer pool.Close()
	x := make([]float64, s.N)
	y := make([]float64, s.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, method := range []ReductionMethod{Indexed, Colored} {
		k := NewKernel(s, method, pool)
		b.Run(method.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.MulVec(x, y)
			}
		})
	}
}
