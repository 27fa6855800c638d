package cg

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/parallel"
)

// Regression tests for the breakdown guards. The pre-fix solvers only
// checked `pap <= 0`, which NaN fails — so an operator producing a single
// NaN made them burn all MaxIter iterations on NaN arithmetic and return
// Converged=false with no indication anything was wrong.

// nanOp is an identity operator with a NaN poisoning row 0: y = x except
// y[0] = NaN·x[0] (NaN even for x[0] = 0, as NaN·0 = NaN).
func nanOp(x, y []float64) {
	copy(y, x)
	y[0] = math.NaN() * x[0]
}

// indefiniteOp is diag(1, …, 1, −1): symmetric but not positive definite.
func indefiniteOp(x, y []float64) {
	copy(y, x)
	y[len(y)-1] = -x[len(x)-1]
}

// unitDiagonal is the diagonal that makes SolveJacobi's preconditioner the
// identity.
func unitDiagonal(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1
	}
	return d
}

func onesRHS(n int) ([]float64, []float64) {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return b, make([]float64, n)
}

func TestSolveBreakdownOnNaN(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	b, x := onesRHS(16)
	res, err := Solve(MulVecFunc(nanOp), pool, b, x, Options{MaxIter: 100})
	if err == nil {
		t.Fatalf("NaN operator: no error (res=%v)", res)
	}
	var be *BreakdownError
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not *BreakdownError: %v", err, err)
	}
	// The NaN must be caught immediately, not after 100 iterations of NaN.
	if res.Iterations > 1 {
		t.Errorf("ran %d iterations on NaN before stopping", res.Iterations)
	}
}

func TestSolveBreakdownOnIndefinite(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	// b = eₙ makes the first search direction point straight at the negative
	// eigenvalue: p₀ᵀ·A·p₀ = −1.
	n := 8
	b := make([]float64, n)
	b[n-1] = 1
	x := make([]float64, n)
	_, err := Solve(MulVecFunc(indefiniteOp), pool, b, x, Options{MaxIter: 100})
	var be *BreakdownError
	if !errors.As(err, &be) {
		t.Fatalf("indefinite operator: expected *BreakdownError, got %v", err)
	}
	if be.Quantity != "pAp" || be.Value > 0 {
		t.Errorf("breakdown = %v, want non-positive pAp", be)
	}
	// One right-hand side: no lane in the text, which serve's error bodies
	// carry verbatim (a block solve's names the lane).
	if want := fmt.Sprintf("cg: breakdown at iteration %d: pAp = %g", be.Iteration, be.Value); be.Lane != 0 || err.Error() != want {
		t.Errorf("lane %d, text %q, want lane 0 and %q", be.Lane, err, want)
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("x[%d] = %g after breakdown: iterate poisoned", i, v)
		}
	}
}

func TestSolveFixedIterationsSkipsBreakdownChecks(t *testing.T) {
	// The paper's timing protocol (Fig. 14) runs a fixed iteration count so
	// every format does identical work; a breakdown exit would skew it.
	pool := parallel.NewPool(2)
	defer pool.Close()
	b, x := onesRHS(16)
	res, err := Solve(MulVecFunc(nanOp), pool, b, x, Options{MaxIter: 7, FixedIterations: true})
	if err != nil {
		t.Fatalf("FixedIterations returned error: %v", err)
	}
	if res.Iterations != 7 {
		t.Errorf("ran %d iterations, want the fixed 7", res.Iterations)
	}
}

func TestSolvePCGBreakdownOnNaN(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	b, x := onesRHS(16)
	res, err := SolveJacobi(MulVecFunc(nanOp), unitDiagonal(len(b)), pool, b, x, Options{MaxIter: 100})
	var be *BreakdownError
	if !errors.As(err, &be) {
		t.Fatalf("NaN operator: expected *BreakdownError, got %v", err)
	}
	if res.Iterations > 1 {
		t.Errorf("PCG ran %d iterations on NaN before stopping", res.Iterations)
	}
}

func TestSolvePCGBreakdownOnIndefinite(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	n := 8
	b := make([]float64, n)
	b[n-1] = 1
	x := make([]float64, n)
	_, err := SolveJacobi(MulVecFunc(indefiniteOp), unitDiagonal(n), pool, b, x, Options{MaxIter: 100})
	var be *BreakdownError
	if !errors.As(err, &be) {
		t.Fatalf("indefinite operator: expected *BreakdownError, got %v", err)
	}
}

// An indefinite diagonal can make rᵀz vanish while r does not: β would
// divide by zero, so the Jacobi solve stops with an "rz" breakdown.
func TestSolveJacobiBreakdownOnVanishingRZ(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	b, x := onesRHS(2)
	// A = I, so pᵀAp = zᵀz = 2 > 0; but z = (1, −1) and rᵀz = 1 − 1 = 0.
	_, err := SolveJacobi(MulVecFunc(func(x, y []float64) { copy(y, x) }), []float64{1, -1}, pool, b, x, Options{})
	var be *BreakdownError
	if !errors.As(err, &be) || be.Quantity != "rz" || be.Iteration != 0 {
		t.Fatalf("err = %v, want an rz breakdown at iteration 0", err)
	}
}
