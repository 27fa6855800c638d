package vec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/parallel"
)

// Every multi-vector kernel must be bitwise identical, per lane, to its
// single-vector counterpart over the deinterleaved columns — the solver
// relies on this to keep block-CG trajectories identical to nv separate CG
// runs. The widths cover every generated cell (2, 4, 8) and the run-time
// width (1, 3, 5); n < np leaves some threads an empty chunk.
func TestMultiKernelsMatchSingleLane(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, nv := range []int{1, 2, 3, 4, 5, 8} {
		for _, np := range []int{1, 2, 3} {
			pool := parallel.NewPool(np)
			for _, n := range []int{1, 2, 501} {
				if err := multiMatchesSingleLane(rng, pool, n, nv); err != "" {
					t.Errorf("nv=%d np=%d n=%d: %s", nv, np, n, err)
				}
			}
			pool.Close()
		}
	}
}

// multiMatchesSingleLane runs the three multi-lane operations on random
// vectors and returns what first differs from the scalar operations over
// each lane, or "".
func multiMatchesSingleLane(rng *rand.Rand, pool *parallel.Pool, n, nv int) string {
	randVec := func(ln int) []float64 {
		out := make([]float64, ln)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out
	}
	lane := func(flat []float64, v int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = flat[i*nv+v]
		}
		return out
	}

	a, b := randVec(n*nv), randVec(n*nv)
	dots := make([]float64, nv)
	MultiDots(pool, a, b, nv, dots)
	for v := 0; v < nv; v++ {
		if want := Dot(pool, lane(a, v), lane(b, v)); dots[v] != want {
			return fmt.Sprintf("MultiDots lane %d = %g, Dot = %g", v, dots[v], want)
		}
	}

	bv, ap := randVec(n*nv), randVec(n*nv)
	r, p := make([]float64, n*nv), make([]float64, n*nv)
	bb, rr := make([]float64, nv), make([]float64, nv)
	MultiSubCopyDots(pool, r, p, bv, ap, nv, bb, rr)
	for v := 0; v < nv; v++ {
		r1, p1 := make([]float64, n), make([]float64, n)
		bb1, _, rr1 := SubCopyDots(pool, nil, r1, p1, lane(bv, v), lane(ap, v))
		if bb[v] != bb1 || rr[v] != rr1 {
			return fmt.Sprintf("MultiSubCopyDots lane %d sums differ", v)
		}
		if !slices.Equal(lane(r, v), r1) || !slices.Equal(lane(p, v), p1) {
			return fmt.Sprintf("MultiSubCopyDots lane %d vectors differ", v)
		}
	}

	x := randVec(n * nv)
	alpha := make([]float64, nv)
	rrOld := make([]float64, nv)
	for v := range alpha {
		alpha[v] = rng.Float64()
		rrOld[v] = 1 + rng.Float64()
	}
	// Single-lane copies before the in-place update.
	laneP, laneAP, laneX, laneR := make([][]float64, nv), make([][]float64, nv), make([][]float64, nv), make([][]float64, nv)
	for v := 0; v < nv; v++ {
		laneP[v], laneAP[v], laneX[v], laneR[v] = lane(p, v), lane(ap, v), lane(x, v), lane(r, v)
	}
	rrNew := make([]float64, nv)
	MultiCGStep(pool, alpha, rrOld, p, ap, x, r, nv, rrNew)
	for v := 0; v < nv; v++ {
		want := CGStep(pool, alpha[v], rrOld[v], laneP[v], laneAP[v], laneX[v], laneR[v])
		if rrNew[v] != want {
			return fmt.Sprintf("MultiCGStep lane %d rr = %g, CGStep = %g", v, rrNew[v], want)
		}
		if !slices.Equal(lane(x, v), laneX[v]) || !slices.Equal(lane(r, v), laneR[v]) || !slices.Equal(lane(p, v), laneP[v]) {
			return fmt.Sprintf("MultiCGStep lane %d vectors differ from CGStep", v)
		}
	}
	return ""
}

// A lane frozen with alpha=0 must leave its x and r numerically intact, and
// an exact-zero rrOld must not inject NaN through the beta division — at every
// generated width, with the frozen lane last so that an unrolled cell's last
// register is the one under test.
func TestMultiCGStepFrozenLane(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	const n = 64
	for _, nv := range []int{2, 4, 8} {
		p := make([]float64, n*nv)
		ap := make([]float64, n*nv)
		x := make([]float64, n*nv)
		r := make([]float64, n*nv)
		for i := range p {
			p[i] = float64(i%7) - 3
			ap[i] = float64(i%5) - 2
			x[i] = float64(i % 3)
			r[i] = float64(i%4) - 1.5
		}
		// The last lane is frozen with a zero residual history.
		f := nv - 1
		for i := 0; i < n; i++ {
			r[i*nv+f] = 0
		}
		alpha, rrOld := make([]float64, nv), make([]float64, nv)
		for v := 0; v < f; v++ {
			alpha[v], rrOld[v] = 0.5, 2
		}
		wantX := slices.Clone(x)
		rrNew := make([]float64, nv)
		MultiCGStep(pool, alpha, rrOld, p, ap, x, r, nv, rrNew)
		for i := 0; i < n; i++ {
			if x[i*nv+f] != wantX[i*nv+f] {
				t.Fatalf("nv=%d: frozen lane x moved at row %d: %g -> %g", nv, i, wantX[i*nv+f], x[i*nv+f])
			}
			if r[i*nv+f] != 0 {
				t.Fatalf("nv=%d: frozen lane r moved at row %d: %g", nv, i, r[i*nv+f])
			}
			if math.IsNaN(p[i*nv+f]) {
				t.Fatalf("nv=%d: frozen lane p went NaN at row %d", nv, i)
			}
		}
		if rrNew[f] != 0 {
			t.Fatalf("nv=%d: frozen lane rrNew = %g", nv, rrNew[f])
		}
	}
}
