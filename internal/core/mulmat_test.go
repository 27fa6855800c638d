package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/vec"
)

// refMulMat computes the reference SpMM by column-wise single multiplies.
func refMulMat(s *SSS, x []float64, nv int) []float64 {
	n := s.N
	y := make([]float64, n*nv)
	xc := make([]float64, n)
	yc := make([]float64, n)
	for v := 0; v < nv; v++ {
		for i := 0; i < n; i++ {
			xc[i] = x[i*nv+v]
		}
		s.MulVec(xc, yc)
		for i := 0; i < n; i++ {
			y[i*nv+v] = yc[i]
		}
	}
	return y
}

func TestKernelMulMatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	for _, n := range []int{5, 120, 700} {
		m := randomSymmetric(t, rng, n, 4)
		s, err := FromCOO(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, nv := range []int{1, 3, 8} {
			x := make([]float64, n*nv)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want := refMulMat(s, x, nv)
			for _, p := range []int{1, 2, 6} {
				pool := parallel.NewPool(p)
				for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
					k := NewKernel(s, method, pool)
					got := make([]float64, n*nv)
					if err := k.MulMat(x, got, nv); err != nil {
						t.Fatal(err)
					}
					if err := k.MulMat(x, got, nv); err != nil { // wide locals must re-zero
						t.Fatal(err)
					}
					if d := maxRelDiff(want, got); d > 1e-12 {
						t.Errorf("n=%d nv=%d p=%d %v: MulMat differs by %g", n, nv, p, method, d)
					}
				}
				pool.Close()
			}
		}
	}
}

// widthSweep is the order in which the width tests below switch one kernel
// between lane counts: up to the widest, back down, through the any-width
// cell, and back to a single vector.
var widthSweep = []int{1, 8, 2, 4, 3, 1}

// mulAt runs one product of width nv on k (MulVec at nv = 1).
func mulAt(t *testing.T, k *Kernel, x, y []float64, nv int) {
	t.Helper()
	if err := k.MulMat(x, y, nv); err != nil {
		t.Fatal(err)
	}
}

// One kernel switched between widths shares one local-vector store: every
// product must be bitwise what a fresh kernel gives at that width, so no
// width may leave anything behind for the next.
func TestKernelMulMatInterleavesWithMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	const n = 200
	m := randomSymmetric(t, rng, n, 3)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 5} {
		pool := parallel.NewPool(p)
		for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
			k := NewKernel(s, method, pool)
			for step, nv := range widthSweep {
				x := randomVector(rng, n*nv)
				got, want := make([]float64, n*nv), make([]float64, n*nv)
				mulAt(t, k, x, got, nv)
				mulAt(t, NewKernel(s, method, pool), x, want, nv)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("p=%d %v step %d (nv=%d): [%d] = %v, a fresh kernel gives %v",
						p, method, step, nv, i, got[i], want[i])
				}
			}
		}
		pool.Close()
	}
}

// Once every width has run, switching between them allocates nothing: the
// local-vector store only grows, and each width keeps its phase list.
func TestMulMatWidthSwitchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	const n = 300
	m := randomSymmetric(t, rng, n, 4)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	widths := []int{1, 2, 4, 8, 3}
	x, y := randomVector(rng, n*8), make([]float64, n*8)
	for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
		k := NewKernel(s, method, pool)
		pass := func() {
			for _, nv := range widths {
				if err := k.MulMat(x[:n*nv], y[:n*nv], nv); err != nil {
					t.Fatal(err)
				}
			}
		}
		pass()
		if a := testing.AllocsPerRun(10, pass); a != 0 {
			t.Errorf("%v: a pass through widths %v allocates %v times, want 0", method, widths, a)
		}
	}
}

func TestMulMatBadArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	m := randomSymmetric(t, rng, 20, 2)
	s, _ := FromCOO(m)
	pool := parallel.NewPool(2)
	defer pool.Close()
	k := NewKernel(s, EffectiveRanges, pool)
	if err := k.MulMat(make([]float64, 40), make([]float64, 40), 0); err == nil {
		t.Fatal("expected an error for nv=0")
	}
	if err := k.MulMat(make([]float64, 40), make([]float64, 40), -3); err == nil {
		t.Fatal("expected an error for negative nv")
	}
	if err := k.MulMat(make([]float64, 39), make([]float64, 40), 2); err == nil {
		t.Fatal("expected an error for short x")
	}
	if err := k.MulMat(make([]float64, 40), make([]float64, 41), 2); err == nil {
		t.Fatal("expected an error for mismatched y")
	}
}

// The register-blocked widths must be bitwise identical to per-column
// MulVec: the specialized bodies perform the same additions in the same
// order per lane as the scalar kernel.
func TestMulMatBlockedBitwiseMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	for _, n := range []int{64, 350} {
		m := randomSymmetric(t, rng, n, 5)
		s, err := FromCOO(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 3, 4} {
			pool := parallel.NewPool(p)
			for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
				k := NewKernel(s, method, pool)
				for _, nv := range []int{2, 4, 8} {
					x := make([]float64, n*nv)
					for i := range x {
						x[i] = rng.NormFloat64()
					}
					got := make([]float64, n*nv)
					if err := k.MulMat(x, got, nv); err != nil {
						t.Fatal(err)
					}
					xc := make([]float64, n)
					yc := make([]float64, n)
					for v := 0; v < nv; v++ {
						for i := 0; i < n; i++ {
							xc[i] = x[i*nv+v]
						}
						k.MulVec(xc, yc)
						for i := 0; i < n; i++ {
							if got[i*nv+v] != yc[i] {
								t.Fatalf("n=%d p=%d %v nv=%d: lane %d row %d = %g, MulVec = %g (not bitwise equal)",
									n, p, method, nv, v, i, got[i*nv+v], yc[i])
							}
						}
					}
				}
			}
			pool.Close()
		}
	}
}

// Property: MulMat with interleaved layout equals per-column MulVec.
func TestQuickMulMat(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(150)
		nv := 1 + rng.Intn(6)
		m := randomSymmetric(t, rng, n, rng.Intn(4))
		s, err := FromCOO(m)
		if err != nil {
			return false
		}
		pool := parallel.NewPool(1 + rng.Intn(5))
		defer pool.Close()
		k := NewKernel(s, Indexed, pool)
		x := make([]float64, n*nv)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := refMulMat(s, x, nv)
		got := make([]float64, n*nv)
		if err := k.MulMat(x, got, nv); err != nil {
			return false
		}
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// MulMatDot is MulMat with each lane's xᵀy fused in: the product bitwise
// MulMat's (MulVec's at one lane), every lane's dot bitwise vec.MultiDots over
// the finished output, at every width in any order, and no allocation once a
// width has run.
func TestMulMatDotMatchesMultiDots(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{5, 257, 1000} {
		s, err := FromCOO(randomSymmetric(t, rng, n, 5))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3} {
			pool := parallel.NewPool(p)
			for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
				k := NewKernel(s, method, pool)
				for _, nv := range []int{8, 1, 3, 4, 2, 8} {
					x := make([]float64, n*nv)
					for i := range x {
						x[i] = rng.NormFloat64()
					}
					y, yd := make([]float64, n*nv), make([]float64, n*nv)
					if err := k.MulMat(x, y, nv); err != nil {
						t.Fatal(err)
					}
					dots, want := make([]float64, nv), make([]float64, nv)
					if err := k.MulMatDot(x, yd, nv, dots); err != nil {
						t.Fatal(err)
					}
					vec.MultiDots(pool, x, y, nv, want)
					for i := range y {
						if math.Float64bits(y[i]) != math.Float64bits(yd[i]) {
							t.Fatalf("n=%d p=%d %v nv=%d: y[%d] = %g, MulMat %g", n, p, method, nv, i, yd[i], y[i])
						}
					}
					for v := range want {
						if math.Float64bits(dots[v]) != math.Float64bits(want[v]) {
							t.Fatalf("n=%d p=%d %v nv=%d: lane %d dot %g, vec.MultiDots %g", n, p, method, nv, v, dots[v], want[v])
						}
					}
					if a := testing.AllocsPerRun(3, func() { _ = k.MulMatDot(x, yd, nv, dots) }); a != 0 {
						t.Errorf("n=%d p=%d %v nv=%d: MulMatDot allocates %v times", n, p, method, nv, a)
					}
				}
			}
			pool.Close()
		}
	}
}
