package vec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/parallel"
)

// Every lane of every multi-vector kernel must be bitwise the serial loop
// over that lane: per thread the terms of its parallel.Chunk rows in row
// order, the threads' sums combined in thread order — the solver relies on
// this to keep block-CG trajectories identical to nv separate CG runs. The
// widths cover every generated cell (1, 2, 4, 8) and the run-time width
// (3, 5); n < np leaves some threads an empty chunk.
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

// chunked is the reference sum of term(i) over rows 0..n-1: serial per
// thread's chunk, then over the threads in order.
func chunked(n, np int, term func(i int) float64) float64 {
	total := 0.0
	for t := range np {
		lo, hi := parallel.Chunk(n, np, t)
		s := 0.0
		for i := lo; i < hi; i++ {
			s += term(i)
		}
		total += s
	}
	return total
}

// multiMatchesSingleLane runs the three multi-lane operations on random
// vectors and returns what first differs from serial loops over each lane,
// or "".
func multiMatchesSingleLane(rng *rand.Rand, pool *parallel.Pool, n, nv int) string {
	np := pool.Size()
	randVec := func(ln int) []float64 {
		out := make([]float64, ln)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out
	}

	a, b := randVec(n*nv), randVec(n*nv)
	dots := make([]float64, nv)
	MultiDots(pool, a, b, nv, dots)
	for v := 0; v < nv; v++ {
		if want := chunked(n, np, func(i int) float64 { return a[i*nv+v] * b[i*nv+v] }); dots[v] != want {
			return fmt.Sprintf("MultiDots lane %d = %g, serial %g", v, dots[v], want)
		}
	}
	// LaneDots adds to what its sums hold, serially over every row.
	sums := slices.Clone(dots)
	LaneDots(a, b, sums)
	for v := 0; v < nv; v++ {
		want := dots[v]
		for i := 0; i < n; i++ {
			want += a[i*nv+v] * b[i*nv+v]
		}
		if sums[v] != want {
			return fmt.Sprintf("LaneDots lane %d = %g, serial %g", v, sums[v], want)
		}
	}

	bv, ap := randVec(n*nv), randVec(n*nv)
	r, p := make([]float64, n*nv), make([]float64, n*nv)
	bb, rr := make([]float64, nv), make([]float64, nv)
	MultiSubCopyDots(pool, r, p, bv, ap, nv, bb, rr)
	for i := range r {
		if ri := bv[i] - ap[i]; r[i] != ri || p[i] != ri {
			return fmt.Sprintf("MultiSubCopyDots element %d: r %g, p %g, want %g", i, r[i], p[i], ri)
		}
	}
	for v := 0; v < nv; v++ {
		bb1 := chunked(n, np, func(i int) float64 { return bv[i*nv+v] * bv[i*nv+v] })
		rr1 := chunked(n, np, func(i int) float64 { return r[i*nv+v] * r[i*nv+v] })
		if bb[v] != bb1 || rr[v] != rr1 {
			return fmt.Sprintf("MultiSubCopyDots lane %d sums differ", v)
		}
	}

	x := randVec(n * nv)
	alpha := make([]float64, nv)
	rrOld := make([]float64, nv)
	for v := range alpha {
		alpha[v] = rng.Float64()
		rrOld[v] = 1 + rng.Float64()
	}
	// The serial step on copies.
	xw, rw, pw := slices.Clone(x), slices.Clone(r), slices.Clone(p)
	for i := range xw {
		xw[i] += alpha[i%nv] * pw[i]
		rw[i] = rw[i] - alpha[i%nv]*ap[i]
	}
	rrWant := make([]float64, nv)
	for v := range rrWant {
		rrWant[v] = chunked(n, np, func(i int) float64 { return rw[i*nv+v] * rw[i*nv+v] })
	}
	for i := range pw {
		pw[i] = rw[i] + rrWant[i%nv]/rrOld[i%nv]*pw[i]
	}
	rrNew := make([]float64, nv)
	MultiCGStep(pool, alpha, rrOld, p, ap, x, r, nv, rrNew)
	if !slices.Equal(rrNew, rrWant) {
		return fmt.Sprintf("MultiCGStep rr = %v, serial %v", rrNew, rrWant)
	}
	if !slices.Equal(x, xw) || !slices.Equal(r, rw) || !slices.Equal(p, pw) {
		return "MultiCGStep vectors differ from the serial step"
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
