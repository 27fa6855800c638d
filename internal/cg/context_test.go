package cg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
)

// slowOp wraps a kernel MulVec with a fixed delay so a test can rely on the
// solve still being in flight when the context fires.
type slowOp struct {
	k     *core.Kernel
	delay time.Duration
}

func (s slowOp) MulVec(x, y []float64) {
	time.Sleep(s.delay)
	s.k.MulVec(x, y)
}

func (s slowOp) MulMat(x, y []float64, nv int) error {
	time.Sleep(s.delay)
	return s.k.MulMat(x, y, nv)
}

func ctxTestSystem(t *testing.T, n int) (*core.Kernel, *parallel.Pool, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	m := spdMatrix(rng, n, 4)
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	t.Cleanup(pool.Close)
	k := core.NewKernel(s, core.Indexed, pool)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return k, pool, b
}

func TestSolveHonorsCancel(t *testing.T) {
	k, pool, b := ctxTestSystem(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first iteration

	x := make([]float64, len(b))
	res, err := Solve(MulVecFunc(k.MulVec), pool, b, x, Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	if res.Converged {
		t.Fatal("cancelled solve reported Converged")
	}
	if res.Iterations != 0 {
		t.Fatalf("pre-cancelled solve ran %d iterations", res.Iterations)
	}
}

func TestSolveHonorsDeadline(t *testing.T) {
	k, pool, b := ctxTestSystem(t, 400)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()

	x := make([]float64, len(b))
	// 2ms per SpM×V: the deadline expires after a couple of iterations, far
	// short of convergence at an absurdly tight tolerance.
	res, err := Solve(slowOp{k, 2 * time.Millisecond}, pool, b, x, Options{
		Tol: 1e-300, MaxIter: 1000, Context: ctx,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(err, context.DeadlineExceeded)", err)
	}
	if res.Iterations >= 1000 {
		t.Fatalf("deadline never fired: %d iterations", res.Iterations)
	}
	// x must hold the last completed iterate: finite values, untouched by the
	// abort path.
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("x[%d] = %v after deadline abort", i, v)
		}
	}
}

func TestSolvePCGHonorsCancel(t *testing.T) {
	k, pool, b := ctxTestSystem(t, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	x := make([]float64, len(b))
	_, err := SolveJacobi(k, k.S.DValues, pool, b, x, Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
}

func TestSolveBlockHonorsDeadline(t *testing.T) {
	k, pool, b1 := ctxTestSystem(t, 300)
	const nv = 4
	n := len(b1)
	b := make([]float64, n*nv)
	for i := 0; i < n; i++ {
		for v := 0; v < nv; v++ {
			b[i*nv+v] = float64(v+1) * b1[i]
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()

	x := make([]float64, n*nv)
	res, err := SolveBlock(slowOp{k, 2 * time.Millisecond}, pool, b, x, nv, Options{
		Tol: 1e-300, MaxIter: 1000, Context: ctx,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(err, context.DeadlineExceeded)", err)
	}
	for v := 0; v < nv; v++ {
		if res.Converged[v] {
			t.Fatalf("lane %d reported converged at Tol=1e-300", v)
		}
	}
}

// A nil or live context must not change the solve at all.
func TestSolveLiveContextConverges(t *testing.T) {
	k, pool, b := ctxTestSystem(t, 400)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	xCtx := make([]float64, len(b))
	resCtx, err := Solve(MulVecFunc(k.MulVec), pool, b, xCtx, Options{Context: ctx})
	if err != nil || !resCtx.Converged {
		t.Fatalf("live-context solve: err=%v res=%v", err, resCtx)
	}
	xNil := make([]float64, len(b))
	resNil, err := Solve(MulVecFunc(k.MulVec), pool, b, xNil, Options{})
	if err != nil || !resNil.Converged {
		t.Fatalf("nil-context solve: err=%v res=%v", err, resNil)
	}
	if resCtx.Iterations != resNil.Iterations {
		t.Fatalf("context changed the trajectory: %d vs %d iterations", resCtx.Iterations, resNil.Iterations)
	}
	for i := range xCtx {
		if xCtx[i] != xNil[i] {
			t.Fatalf("x[%d]: %g with context, %g without", i, xCtx[i], xNil[i])
		}
	}
}
