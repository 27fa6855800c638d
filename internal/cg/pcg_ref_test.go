package cg

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/vec"
)

// The Jacobi-preconditioned CG loop SolveJacobi replaced, kept verbatim from
// PR 24 as the oracle: SolvePCG with its JacobiPreconditioner, one dispatch
// per vector operation. The preconditioner is now its inverse diagonal, and
// the one-shot vec kernels it called (Sub, Copy, Norm2, Axpy, Xpay), which
// left the package with it, are the serial loops below: they are
// element-wise, so the chunking they ran under never changed a bit, and
// Norm2 was √Dot. SolveJacobi must reproduce every iterate bitwise.

// refInvDiag is NewJacobi: zero diagonal entries fall back to the identity.
func refInvDiag(diag []float64) []float64 {
	inv := make([]float64, len(diag))
	for i, d := range diag {
		if d != 0 {
			inv[i] = 1 / d
		} else {
			inv[i] = 1
		}
	}
	return inv
}

func refApply(inv, r, z []float64) {
	for i := range r {
		z[i] = r[i] * inv[i]
	}
}

func refSub(dst, a, b []float64) {
	for i := range a {
		dst[i] = a[i] - b[i]
	}
}

func refAxpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

func refXpay(alpha float64, x, y []float64) {
	for i := range x {
		y[i] = x[i] + alpha*y[i]
	}
}

func refSolvePCG(a MulVecer, inv []float64, pool *parallel.Pool, b, x []float64, opts Options) (Result, error) {
	n := len(b)
	if len(x) != n {
		panic(fmt.Sprintf("cg: len(x)=%d, len(b)=%d", len(x), n))
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 10 * n
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-10
	}
	cgSolves.Inc()
	sampled := obs.SamplingEnabled()

	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	var res Result
	start := time.Now()
	mark := func(d *time.Duration, t0 time.Time) { *d += time.Since(t0) }
	finish := func(rr, normB float64, err error) (Result, error) {
		if err == nil && rr <= (opts.Tol*normB)*(opts.Tol*normB) {
			res.Converged = true
		}
		res.Residual = math.Sqrt(math.Max(rr, 0)) / normB
		res.TotalTime = time.Since(start)
		return res, err
	}

	t0 := time.Now()
	a.MulVec(x, ap)
	mark(&res.SpMVTime, t0)

	t0 = time.Now()
	refSub(r, b, ap)
	refApply(inv, r, z)
	copy(p, z)
	normB := math.Sqrt(vec.Dot(pool, b, b))
	if normB == 0 {
		normB = 1
	}
	rz := vec.Dot(pool, r, z)
	rr := vec.Dot(pool, r, r)
	mark(&res.VectorTime, t0)
	if !opts.FixedIterations && !isFinite(rr) {
		return finish(rr, normB, &BreakdownError{Iteration: 0, Quantity: "residual", Value: rr})
	}

	tol2 := (opts.Tol * normB) * (opts.Tol * normB)
	for i := 0; i < opts.MaxIter; i++ {
		if rr <= tol2 && !opts.FixedIterations {
			res.Converged = true
			break
		}
		if cerr := ctxErr(opts.Context, i); cerr != nil {
			return finish(rr, normB, cerr)
		}
		var itStart, itMid int64
		if sampled {
			itStart = obs.Now()
		}
		t0 = time.Now()
		a.MulVec(p, ap)
		mark(&res.SpMVTime, t0)
		if sampled {
			itMid = obs.Now()
		}

		t0 = time.Now()
		pap := vec.Dot(pool, p, ap)
		if !opts.FixedIterations && (pap <= 0 || !isFinite(pap)) {
			mark(&res.VectorTime, t0)
			return finish(rr, normB, &BreakdownError{Iteration: i, Quantity: "pAp", Value: pap})
		}
		if !opts.FixedIterations && (rz == 0 || !isFinite(rz)) {
			// β = rz'/rz: a vanished or non-finite rz poisons every later
			// search direction.
			mark(&res.VectorTime, t0)
			return finish(rr, normB, &BreakdownError{Iteration: i, Quantity: "rz", Value: rz})
		}
		alpha := rz / pap
		refAxpy(alpha, p, x)
		refAxpy(-alpha, ap, r)
		refApply(inv, r, z)
		rzNew := vec.Dot(pool, r, z)
		beta := rzNew / rz
		rz = rzNew
		rr = vec.Dot(pool, r, r)
		refXpay(beta, z, p) // p = z + β·p
		mark(&res.VectorTime, t0)
		res.Iterations++
		cgIterations.Inc()
		if sampled {
			itEnd := obs.Now()
			obs.TraceSpan(obs.LaneCoordinator, cgNameSpMV, itStart, itMid)
			obs.TraceSpan(obs.LaneCoordinator, cgNameVec, itMid, itEnd)
			obs.TraceSpan(obs.LaneCoordinator, cgNameIter, itStart, itEnd)
			cgIterSeconds.Observe(float64(itEnd-itStart) / 1e9)
			cgResidual.Set(math.Sqrt(math.Max(rr, 0)) / normB)
		}
		if !opts.FixedIterations && !isFinite(rr) {
			return finish(rr, normB, &BreakdownError{Iteration: i, Quantity: "residual", Value: rr})
		}
	}
	return finish(rr, normB, nil)
}
