package cg

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// kernelMulMater adapts a core.Kernel to MulMater (the facade does the same
// through its bound kernel).
type kernelMulMater struct{ k *core.Kernel }

func (a kernelMulMater) MulMat(x, y []float64, nv int) error { return a.k.MulMat(x, y, nv) }

func TestSolveBlockConvergesAllLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const n, nv = 300, 4
	m := spdMatrix(rng, n, 4)
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	k := core.NewKernel(s, core.Indexed, pool)

	xstar := make([]float64, n*nv)
	for i := range xstar {
		xstar[i] = rng.NormFloat64()
	}
	b := make([]float64, n*nv)
	if err := k.MulMat(xstar, b, nv); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n*nv)
	res, err := SolveBlock(kernelMulMater{k}, pool, b, x, nv, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllConverged() {
		t.Fatalf("not all lanes converged: %v", res)
	}
	worst := 0.0
	for i := range x {
		if d := math.Abs(x[i] - xstar[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-7 {
		t.Fatalf("max error %g after convergence", worst)
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

// A block solve's lanes must follow the same trajectory as nv independent
// scalar CG solves: the matrix stream is shared but the recurrences are not
// coupled. (Not bitwise — the SpMM compute phase re-associates row sums per
// lane — but far tighter than the convergence tolerance.)
func TestSolveBlockMatchesScalarLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	const n, nv = 200, 3
	m := spdMatrix(rng, n, 3)
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(3)
	defer pool.Close()
	k := core.NewKernel(s, core.EffectiveRanges, pool)

	b := make([]float64, n*nv)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n*nv)
	opts := Options{Tol: 1e-10, MaxIter: 4 * n}
	res, err := SolveBlock(kernelMulMater{k}, pool, b, x, nv, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < nv; v++ {
		bv := make([]float64, n)
		for i := 0; i < n; i++ {
			bv[i] = b[i*nv+v]
		}
		xv := make([]float64, n)
		sres, err := Solve(MulVecFunc(func(xx, yy []float64) { k.MulVec(xx, yy) }), pool, bv, xv, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sres.Converged != res.Converged[v] {
			t.Fatalf("lane %d converged=%v, scalar=%v", v, res.Converged[v], sres.Converged)
		}
		for i := 0; i < n; i++ {
			d := math.Abs(x[i*nv+v] - xv[i])
			if d > 1e-8*(1+math.Abs(xv[i])) {
				t.Fatalf("lane %d row %d: block %g, scalar %g", v, i, x[i*nv+v], xv[i])
			}
		}
	}
}

// Lanes with very different conditioning freeze independently; the easy lane
// must not keep iterating (and must not be disturbed) while hard lanes run.
func TestSolveBlockFreezesConvergedLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const n, nv = 150, 2
	m := spdMatrix(rng, n, 3)
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	k := core.NewKernel(s, core.Indexed, pool)

	// Lane 0: b = 0 → instantly converged at x = 0. Lane 1: random.
	b := make([]float64, n*nv)
	for i := 0; i < n; i++ {
		b[i*nv+1] = rng.NormFloat64()
	}
	x := make([]float64, n*nv)
	res, err := SolveBlock(kernelMulMater{k}, pool, b, x, nv, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllConverged() {
		t.Fatalf("not all converged: %v", res)
	}
	for i := 0; i < n; i++ {
		if x[i*nv] != 0 {
			t.Fatalf("zero-RHS lane moved at row %d: %g", i, x[i*nv])
		}
	}
}

func TestSolveBlockBreakdown(t *testing.T) {
	// An indefinite operator must produce a typed breakdown, not NaN output,
	// naming the lane that broke: lane 0's zero right-hand side is solved
	// before the first iteration, so lane 1 is the first to break.
	rng := rand.New(rand.NewSource(84))
	const n, nv = 40, 2
	s := indefiniteSSS(t, n)
	pool := parallel.NewPool(2)
	defer pool.Close()
	k := core.NewKernel(s, core.Indexed, pool)
	b := make([]float64, n*nv)
	for i := 0; i < n; i++ {
		b[i*nv+1] = rng.NormFloat64()
	}
	x := make([]float64, n*nv)
	_, err := SolveBlock(kernelMulMater{k}, pool, b, x, nv, Options{})
	var bd *BreakdownError
	if !errors.As(err, &bd) {
		t.Fatalf("expected *BreakdownError, got %v", err)
	}
	if bd.Lane != 1 || bd.Quantity != "pAp" || !strings.Contains(bd.Error(), "lane 1:") {
		t.Fatalf("breakdown %+v (%q), want lane 1's pAp named", bd, bd)
	}
	for i := range x {
		if math.IsNaN(x[i]) {
			t.Fatalf("x[%d] is NaN after breakdown", i)
		}
	}
}

// failingMulMater forwards to a kernel until its call number fail, which
// returns an error instead.
type failingMulMater struct {
	kernelMulMater
	calls, fail int
}

func (a *failingMulMater) MulMat(x, y []float64, nv int) error {
	if a.calls++; a.calls == a.fail {
		return errors.New("spmm failed")
	}
	return a.kernelMulMater.MulMat(x, y, nv)
}

// An SpMM that fails mid-solve stops it with its error and a result that
// reports the last completed iterate: its residuals, no lane converged, and
// the time spent.
func TestSolveBlockSpMMErrorReportsLastIterate(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	const n, nv = 120, 4
	s, err := core.FromCOO(spdMatrix(rng, n, 3))
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	b := make([]float64, n*nv)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	a := &failingMulMater{kernelMulMater: kernelMulMater{core.NewKernel(s, core.Indexed, pool)}, fail: 3}
	res, err := SolveBlock(a, pool, b, make([]float64, n*nv), nv, Options{Tol: 1e-12})
	if err == nil || err.Error() != "spmm failed" {
		t.Fatalf("err = %v, want the SpMM's error", err)
	}
	if res.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1 (the third product is the second iteration's)", res.Iterations)
	}
	for v := 0; v < nv; v++ {
		if !(res.Residuals[v] > 0) || res.Converged[v] {
			t.Errorf("lane %d: residual %g, converged %v; want the last iterate's residual, not converged", v, res.Residuals[v], res.Converged[v])
		}
	}
	if res.TotalTime <= 0 {
		t.Errorf("TotalTime = %v, want > 0", res.TotalTime)
	}
}

func indefiniteSSS(t *testing.T, n int) *core.SSS {
	t.Helper()
	m := matrix.NewCOO(n, n, n)
	m.Symmetric = true
	for i := 0; i < n; i++ {
		m.Add(i, i, -1) // negative definite diagonal
	}
	s, err := core.FromCOO(m.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	return s
}
