package csr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// TestMulMatLanesMatchMulVec holds every lane of the SpMM cell bitwise to the
// SpM×V cell on that column: both add a row's terms in stored order from 0.
func TestMulMatLanesMatchMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	a := FromCOO(randomGeneral(rng, 211, 83, 900))
	for _, p := range []int{1, 2, 4} {
		pool := parallel.NewPool(p)
		pk := NewParallel(a, pool)
		for _, nv := range []int{1, 2, 3, 4, 8} {
			x, y := make([]float64, a.Cols*nv), make([]float64, a.Rows*nv)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			for i := range y {
				y[i] = math.NaN() // a row the body fails to assign stays NaN
			}
			if err := pk.MulMat(x, y, nv); err != nil {
				t.Fatalf("p=%d nv=%d: %v", p, nv, err)
			}
			xv, yv := make([]float64, a.Cols), make([]float64, a.Rows)
			for v := range nv {
				for i := range xv {
					xv[i] = x[i*nv+v]
				}
				pk.MulVec(xv, yv)
				for r, want := range yv {
					if got := y[r*nv+v]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("p=%d nv=%d lane %d row %d: MulMat %g, MulVec %g", p, nv, v, r, got, want)
					}
				}
			}
		}
		pool.Close()
	}
}

// TestMulMatRejectsBadShapes: a lane count below one or operands of the
// wrong length are a typed error, as core.Kernel.MulMat's are, and leave y
// as it was.
func TestMulMatRejectsBadShapes(t *testing.T) {
	a := FromCOO(randomGeneral(rand.New(rand.NewSource(75)), 5, 3, 9))
	pool := parallel.NewPool(2)
	defer pool.Close()
	pk := NewParallel(a, pool)
	for _, c := range []struct{ nx, ny, nv int }{
		{0, 0, 0}, {3, 5, -1}, {6, 10, 3}, {6, 11, 2}, {10, 6, 2},
	} {
		x, y := make([]float64, c.nx), make([]float64, c.ny)
		for i := range y {
			y[i] = 7
		}
		if err := pk.MulMat(x, y, c.nv); err == nil {
			t.Errorf("MulMat(len(x)=%d, len(y)=%d, nv=%d) on a 5x3 matrix: no error", c.nx, c.ny, c.nv)
		}
		for _, v := range y {
			if v != 7 {
				t.Fatalf("a refused MulMat(nv=%d) wrote y: %v", c.nv, y)
			}
		}
	}
}
