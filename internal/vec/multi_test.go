package vec

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

func TestInterleaveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, nv := 37, 5
	cols := make([][]float64, nv)
	for v := range cols {
		cols[v] = make([]float64, n)
		for i := range cols[v] {
			cols[v][i] = rng.NormFloat64()
		}
	}
	flat := make([]float64, n*nv)
	Interleave(flat, cols)
	for v := 0; v < nv; v++ {
		for i := 0; i < n; i++ {
			if flat[i*nv+v] != cols[v][i] {
				t.Fatalf("flat[%d*%d+%d] != cols[%d][%d]", i, nv, v, v, i)
			}
		}
	}
	back := make([][]float64, nv)
	for v := range back {
		back[v] = make([]float64, n)
	}
	Deinterleave(back, flat)
	for v := range back {
		for i := range back[v] {
			if back[v][i] != cols[v][i] {
				t.Fatalf("round trip lost cols[%d][%d]", v, i)
			}
		}
	}
}

// Every multi-vector kernel must be bitwise identical, per lane, to its
// single-vector counterpart over the deinterleaved columns — the solver
// relies on this to keep block-CG trajectories identical to nv separate CG
// runs.
func TestMultiKernelsMatchSingleLane(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, nv, np := 501, 4, 3
	pool := parallel.NewPool(np)
	defer pool.Close()

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
			t.Fatalf("MultiDots lane %d = %g, Dot = %g", v, dots[v], want)
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
			t.Fatalf("MultiSubCopyDots lane %d sums differ", v)
		}
		gotR, gotP := lane(r, v), lane(p, v)
		for i := 0; i < n; i++ {
			if gotR[i] != r1[i] || gotP[i] != p1[i] {
				t.Fatalf("MultiSubCopyDots lane %d row %d differs", v, i)
			}
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
			t.Fatalf("MultiCGStep lane %d rr = %g, CGStep = %g", v, rrNew[v], want)
		}
		gx, gr, gp := lane(x, v), lane(r, v), lane(p, v)
		for i := 0; i < n; i++ {
			if gx[i] != laneX[v][i] || gr[i] != laneR[v][i] || gp[i] != laneP[v][i] {
				t.Fatalf("MultiCGStep lane %d row %d differs from CGStep", v, i)
			}
		}
	}
}

// A lane frozen with alpha=0 must leave its x and r numerically intact, and
// an exact-zero rrOld must not inject NaN through the beta division.
func TestMultiCGStepFrozenLane(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	n, nv := 64, 2
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
	// Lane 1 is frozen with a zero residual history.
	for i := 0; i < n; i++ {
		r[i*nv+1] = 0
	}
	wantX := append([]float64(nil), x...)
	rrNew := make([]float64, nv)
	MultiCGStep(pool, []float64{0.5, 0}, []float64{2.0, 0}, p, ap, x, r, nv, rrNew)
	for i := 0; i < n; i++ {
		if x[i*nv+1] != wantX[i*nv+1] && !(x[i*nv+1] == 0 && wantX[i*nv+1] == 0) {
			t.Fatalf("frozen lane x moved at row %d: %g -> %g", i, wantX[i*nv+1], x[i*nv+1])
		}
		if r[i*nv+1] != 0 {
			t.Fatalf("frozen lane r moved at row %d: %g", i, r[i*nv+1])
		}
		if p[i*nv+1] != p[i*nv+1] { // NaN check
			t.Fatalf("frozen lane p went NaN at row %d", i)
		}
	}
	if rrNew[1] != 0 {
		t.Fatalf("frozen lane rrNew = %g", rrNew[1])
	}
}
