package cg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// spdMatrix builds a random strictly diagonally dominant symmetric matrix.
func spdMatrix(rng *rand.Rand, n, offPerRow int) *matrix.COO {
	m := matrix.NewCOO(n, n, n*(offPerRow+1))
	m.Symmetric = true
	rowAbs := make([]float64, n)
	for r := 0; r < n; r++ {
		for k := 0; k < offPerRow && r > 0; k++ {
			c := rng.Intn(r)
			v := rng.NormFloat64()
			m.Add(r, c, v)
			rowAbs[r] += math.Abs(v)
			rowAbs[c] += math.Abs(v)
		}
	}
	for r := 0; r < n; r++ {
		m.Add(r, r, rowAbs[r]+1)
	}
	return m.Normalize()
}

func TestSolveConvergesToKnownSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n = 400
	m := spdMatrix(rng, n, 4)
	pool := parallel.NewPool(4)
	defer pool.Close()

	xstar := make([]float64, n)
	for i := range xstar {
		xstar[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	m.MulVec(xstar, b)

	x := make([]float64, n)
	res, err := Solve(MulVecFunc(m.MulVec), pool, b, x, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %v", res)
	}
	worst := 0.0
	for i := range x {
		if d := math.Abs(x[i] - xstar[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-8 {
		t.Fatalf("max error %g after convergence", worst)
	}
}

func TestSolveAllKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const n = 300
	m := spdMatrix(rng, n, 3)
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(3)
	defer pool.Close()

	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	kernels := map[string]MulVecer{
		"coo":     MulVecFunc(m.MulVec),
		"csr":     MulVecFunc(csr.NewParallel(csr.FromCOO(m), pool).MulVec),
		"sss-idx": MulVecFunc(core.NewKernel(s, core.Indexed, pool).MulVec),
	}
	var ref []float64
	for name, k := range kernels {
		x := make([]float64, n)
		res, err := Solve(k, pool, b, x, Options{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge: %v", name, res)
		}
		if ref == nil {
			ref = x
			continue
		}
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-7 {
				t.Fatalf("%s: solution differs at %d: %g vs %g", name, i, x[i], ref[i])
			}
		}
	}
}

func TestSolveFixedIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const n = 100
	m := spdMatrix(rng, n, 2)
	pool := parallel.NewPool(2)
	defer pool.Close()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	res, err := Solve(MulVecFunc(m.MulVec), pool, b, x, Options{MaxIter: 37, FixedIterations: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 37 {
		t.Fatalf("fixed iterations: ran %d, want 37", res.Iterations)
	}
}

func TestSolveZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	m := spdMatrix(rng, 50, 2)
	pool := parallel.NewPool(2)
	defer pool.Close()
	b := make([]float64, 50)
	x := make([]float64, 50)
	res, err := Solve(MulVecFunc(m.MulVec), pool, b, x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("zero RHS should converge immediately: %v", res)
	}
	for i := range x {
		if x[i] != 0 {
			t.Fatalf("x[%d] = %g, want 0", i, x[i])
		}
	}
}

func TestSolveDimensionMismatchPanics(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	_, _ = Solve(MulVecFunc(func(x, y []float64) {}), pool, make([]float64, 3), make([]float64, 4), Options{})
}

func TestResultString(t *testing.T) {
	r := Result{Iterations: 5, Converged: true, Residual: 1e-11}
	if s := r.String(); s == "" {
		t.Fatal("empty Result string")
	}
}

func TestPhaseTimesAccounted(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	m := spdMatrix(rng, 500, 4)
	pool := parallel.NewPool(2)
	defer pool.Close()
	b := make([]float64, 500)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, 500)
	res, err := Solve(MulVecFunc(m.MulVec), pool, b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpMVTime <= 0 || res.VectorTime <= 0 {
		t.Fatalf("phase times not recorded: %+v", res)
	}
	if res.SpMVTime+res.VectorTime > res.TotalTime*2 {
		t.Fatalf("phase times exceed total: %+v", res)
	}
}

// The fused path (kernel implements MulVecDotter) must reproduce the unfused
// path bitwise: MulVecDot's partial-sum order equals vec.Dot's, and CGStep's
// arithmetic equals the unfused axpy/dot/xpay chain.
func TestSolveFusedMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	const n = 500
	m := spdMatrix(rng, n, 4)
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	xstar := make([]float64, n)
	for i := range xstar {
		xstar[i] = rng.NormFloat64()
	}
	m.MulVec(xstar, b)

	pool := parallel.NewPool(4)
	defer pool.Close()
	k := core.NewKernel(s, core.Indexed, pool)

	xFused := make([]float64, n)
	resFused, _ := Solve(k, pool, b, xFused, Options{MaxIter: 50, FixedIterations: true})

	xPlain := make([]float64, n)
	// MulVecFunc hides MulVecDot, forcing the unfused path over the same kernel.
	resPlain, _ := Solve(MulVecFunc(k.MulVec), pool, b, xPlain, Options{MaxIter: 50, FixedIterations: true})

	for i := range xFused {
		if xFused[i] != xPlain[i] {
			t.Fatalf("x[%d] differs: fused %g, unfused %g", i, xFused[i], xPlain[i])
		}
	}
	if resFused.Residual != resPlain.Residual {
		t.Fatalf("residual differs: fused %g, unfused %g", resFused.Residual, resPlain.Residual)
	}
	if resFused.Iterations != resPlain.Iterations {
		t.Fatalf("iterations differ: fused %d, unfused %d", resFused.Iterations, resPlain.Iterations)
	}
}

// A fused CG iteration must execute with at most two hand-offs: one for the
// fused SpM×V+dot, one for the fused vector-update chain; without the
// kernel's fused dot, three. Jacobi rides the same iteration, and so does a
// block-CG iteration at nv lanes: the SpMM with its per-lane dots, then the
// fused step. Asserted through the pool's instrumented dispatch counter.
func TestSolveFusedIterationHandoffs(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	const n = 400
	m := spdMatrix(rng, n, 4)
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	const nv = 4
	b4 := make([]float64, n*nv)
	for i := range b4 {
		b4[i] = rng.NormFloat64()
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, method := range []core.ReductionMethod{core.Naive, core.EffectiveRanges, core.Indexed} {
		k := core.NewKernel(s, method, pool)
		for _, tc := range []struct {
			name    string
			lanes   int
			perIter int
			solve   func(x []float64, opts Options)
		}{
			{"cg", 1, 2, func(x []float64, opts Options) { _, _ = Solve(k, pool, b, x, opts) }},
			{"jacobi", 1, 2, func(x []float64, opts Options) { _, _ = SolveJacobi(k, s.DValues, pool, b, x, opts) }},
			{"jacobi-unfused", 1, 3, func(x []float64, opts Options) {
				_, _ = SolveJacobi(MulVecFunc(k.MulVec), s.DValues, pool, b, x, opts)
			}},
			{"block", nv, 2, func(x []float64, opts Options) {
				_, _ = SolveBlock(Operator{Mul: k.MulMat, MulDot: k.MulMatDot}, pool, b4, x, nv, opts)
			}},
			{"block-unfused", nv, 3, func(x []float64, opts Options) { _, _ = SolveBlock(kernelMulMater{k}, pool, b4, x, nv, opts) }},
		} {
			x := make([]float64, n*tc.lanes)
			const iters = 25
			// Warm-up solve allocates MulVecDot's partial buffer outside the count.
			tc.solve(x, Options{MaxIter: 1, FixedIterations: true})

			clear(x)
			pool.ResetHandoffs()
			tc.solve(x, Options{MaxIter: iters, FixedIterations: true})
			total := pool.Handoffs()
			// Setup costs two handoffs (initial SpM×V or SpMM + SubCopyDots).
			const setup = 2
			if want := int64(setup + tc.perIter*iters); total > want {
				t.Errorf("method=%v %s: %d handoffs for %d iterations, want ≤ %d",
					method, tc.name, total, iters, want)
			}
		}
	}
}

// A CG iteration allocates nothing: the solve's workspace holds the partial
// sums and the phase lists, so 100 more iterations cost no more allocations —
// on the fused path, the unfused one and the block solver alike, the latter
// at every generated lane width and the run-time one.
func TestIterationsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const n, nv, k = 400, 8, 5
	s, err := core.FromCOO(spdMatrix(rng, n, 4))
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	kern := core.NewKernel(s, core.Indexed, pool)
	b, x := make([]float64, n*nv), make([]float64, n*nv)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	solves := map[string]func(iters int){
		"fused": func(iters int) {
			_, _ = Solve(kern, pool, b[:n], x[:n], Options{MaxIter: iters, FixedIterations: true})
		},
		"unfused": func(iters int) {
			_, _ = Solve(MulVecFunc(kern.MulVec), pool, b[:n], x[:n], Options{MaxIter: iters, FixedIterations: true})
		},
	}
	for _, w := range []int{1, 2, 4, 8} {
		solves[fmt.Sprintf("block nv=%d", w)] = func(iters int) {
			_, _ = SolveBlock(kernelMulMater{kern}, pool, b[:n*w], x[:n*w], w, Options{MaxIter: iters, FixedIterations: true})
		}
	}
	for name, solve := range solves {
		solve(1) // the kernel's own first-use buffers
		short := testing.AllocsPerRun(5, func() { solve(k) })
		long := testing.AllocsPerRun(5, func() { solve(k + 100) })
		if long > short+2 { // one allocation per iteration would be +100; the race runtime's own may add one
			t.Errorf("%s: %v allocations for %d iterations, %v for %d", name, long, k+100, short, k)
		}
	}
}
