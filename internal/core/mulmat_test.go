package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
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

func TestSerialMulMatMatchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for _, nv := range []int{1, 2, 4, 7} {
		m := randomSymmetric(t, rng, 300, 4)
		s, err := FromCOO(m)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, s.N*nv)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := refMulMat(s, x, nv)
		got := make([]float64, s.N*nv)
		s.MulMat(x, got, nv)
		if d := maxRelDiff(want, got); d > 1e-12 {
			t.Errorf("nv=%d: serial MulMat differs by %g", nv, d)
		}
	}
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

func TestKernelMulMatInterleavesWithMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	m := randomSymmetric(t, rng, 200, 3)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	k := NewKernel(s, Indexed, pool)
	x1 := make([]float64, 200)
	for i := range x1 {
		x1[i] = rng.NormFloat64()
	}
	want1 := make([]float64, 200)
	m.MulVec(x1, want1)

	// Alternate single- and multi-vector calls on the same kernel; the
	// shared and wide local state must never leak between them.
	x3 := make([]float64, 200*3)
	for i := range x3 {
		x3[i] = rng.NormFloat64()
	}
	want3 := refMulMat(s, x3, 3)
	for rep := 0; rep < 3; rep++ {
		got1 := make([]float64, 200)
		k.MulVec(x1, got1)
		if d := maxRelDiff(want1, got1); d > 1e-12 {
			t.Fatalf("rep %d: MulVec differs by %g", rep, d)
		}
		got3 := make([]float64, 200*3)
		if err := k.MulMat(x3, got3, 3); err != nil {
			t.Fatal(err)
		}
		if d := maxRelDiff(want3, got3); d > 1e-12 {
			t.Fatalf("rep %d: MulMat differs by %g", rep, d)
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
