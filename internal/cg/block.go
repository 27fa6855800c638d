package cg

import (
	"fmt"
	"math"
	"time"

	"repro/internal/parallel"
	"repro/internal/vec"
)

// MulMater is the SpMM interface the block solver consumes: one matrix
// stream updating nv interleaved right-hand sides (y[i*nv+v] lane layout).
type MulMater interface {
	MulMat(x, y []float64, nv int) error
}

// BlockResult reports a block-CG solve: nv independent systems A·x_v = b_v
// advanced in lockstep, sharing every matrix stream.
type BlockResult struct {
	NV         int
	Iterations int       // iterations executed (shared across lanes)
	Converged  []bool    // per-lane convergence
	Residuals  []float64 // per-lane final relative residual ‖r_v‖/‖b_v‖

	SpMVTime   time.Duration // time inside A·P (the SpMM calls)
	VectorTime time.Duration
	TotalTime  time.Duration
}

// AllConverged reports whether every lane reached its tolerance.
func (r BlockResult) AllConverged() bool {
	for _, c := range r.Converged {
		if !c {
			return false
		}
	}
	return true
}

// String renders a one-line summary.
func (r BlockResult) String() string {
	worst := 0.0
	done := 0
	for v := 0; v < r.NV; v++ {
		if r.Residuals[v] > worst {
			worst = r.Residuals[v]
		}
		if r.Converged[v] {
			done++
		}
	}
	return fmt.Sprintf("nv=%d iters=%d converged=%d/%d worst rel.res=%.3e total=%v (spmm %v, vector %v)",
		r.NV, r.Iterations, done, r.NV, worst, r.TotalTime.Round(time.Microsecond),
		r.SpMVTime.Round(time.Microsecond), r.VectorTime.Round(time.Microsecond))
}

// SolveBlock runs nv simultaneous CG recurrences over the interleaved
// right-hand sides b (b[i*nv+v] is lane v of row i), updating x in place in
// the same layout. Each lane follows the classic CG recurrence with its own
// alpha/beta scalars; only the matrix stream is shared, so one SpMM per
// iteration replaces nv SpMVs — this is where the multi-RHS bandwidth win
// comes from, since CG iterations are otherwise memory-bound on A.
//
// Lanes converge independently: a lane that reaches Tol is frozen (its
// alpha forced to 0, so its x and r stop moving) while the rest continue.
// The iteration stops when every lane is frozen or MaxIter is reached.
//
// A lane whose pᵀ·Ap goes non-positive or non-finite triggers a
// *BreakdownError naming the first offending lane; x still holds every
// lane's last finite iterate. An SpMM error stops the solve the same way:
// the result reports the last completed iterate's residuals (NaN if the
// first product failed) and no lane as converged.
func SolveBlock(a MulMater, pool *parallel.Pool, b, x []float64, nv int, opts Options) (BlockResult, error) {
	if nv < 1 {
		panic(fmt.Sprintf("cg: SolveBlock nv=%d", nv))
	}
	if len(b)%nv != 0 || len(x) != len(b) {
		panic(fmt.Sprintf("cg: SolveBlock dims: len(b)=%d, len(x)=%d, nv=%d", len(b), len(x), nv))
	}
	n := len(b) / nv
	if opts.MaxIter == 0 {
		opts.MaxIter = 10 * n
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-10
	}
	cgSolves.Inc()

	r := make([]float64, n*nv)
	p := make([]float64, n*nv)
	ap := make([]float64, n*nv)
	bb := make([]float64, nv)
	rr := make([]float64, nv)
	pap := make([]float64, nv)
	alpha := make([]float64, nv)
	rrNew := make([]float64, nv)
	normB := make([]float64, nv)
	tol2 := make([]float64, nv)
	frozen := make([]bool, nv)
	// Bound once, as in Solve: an iteration allocates nothing.
	dots, step := vec.BindMultiDots(pool, p, ap, nv), vec.BindMultiCGStep(pool, p, ap, x, r, nv)

	res := BlockResult{NV: nv, Converged: make([]bool, nv), Residuals: make([]float64, nv)}
	start := time.Now()
	mark := func(d *time.Duration, t0 time.Time) { *d += time.Since(t0) }
	finish := func(err error) (BlockResult, error) {
		for v := 0; v < nv; v++ {
			if err == nil && rr[v] <= tol2[v] {
				res.Converged[v] = true
			}
			res.Residuals[v] = math.Sqrt(math.Max(rr[v], 0)) / normB[v]
		}
		res.TotalTime = time.Since(start)
		return res, err
	}

	// R₀ = B − A·X₀ ; P₀ = R₀ ; per-lane ‖b‖² and r₀ᵀr₀.
	t0 := time.Now()
	if err := a.MulMat(x, ap, nv); err != nil {
		return finish(err)
	}
	mark(&res.SpMVTime, t0)
	t0 = time.Now()
	vec.MultiSubCopyDots(pool, r, p, b, ap, nv, bb, rr)
	mark(&res.VectorTime, t0)
	for v := 0; v < nv; v++ {
		normB[v] = math.Sqrt(bb[v])
		if normB[v] == 0 {
			normB[v] = 1
		}
		tol2[v] = (opts.Tol * normB[v]) * (opts.Tol * normB[v])
		if !opts.FixedIterations && !isFinite(rr[v]) {
			return finish(&BreakdownError{Iteration: 0, Quantity: "residual", Value: rr[v]})
		}
	}

	for i := 0; i < opts.MaxIter; i++ {
		live := 0
		for v := 0; v < nv; v++ {
			if frozen[v] {
				continue
			}
			if rr[v] <= tol2[v] && !opts.FixedIterations {
				frozen[v] = true
				continue
			}
			live++
		}
		if live == 0 {
			break
		}
		if cerr := ctxErr(opts.Context, i); cerr != nil {
			return finish(cerr)
		}
		t0 = time.Now()
		if err := a.MulMat(p, ap, nv); err != nil {
			return finish(err)
		}
		mark(&res.SpMVTime, t0)
		t0 = time.Now()
		dots(pap)
		for v := 0; v < nv; v++ {
			if frozen[v] {
				alpha[v] = 0 // frozen lanes stop moving; see vec.MultiCGStep
				continue
			}
			if !opts.FixedIterations && (pap[v] <= 0 || !isFinite(pap[v])) {
				mark(&res.VectorTime, t0)
				return finish(&BreakdownError{Iteration: i, Quantity: "pAp", Value: pap[v]})
			}
			alpha[v] = rr[v] / pap[v]
		}
		step(alpha, rr, rrNew)
		for v := 0; v < nv; v++ {
			if !frozen[v] {
				rr[v] = rrNew[v]
				if !opts.FixedIterations && !isFinite(rr[v]) {
					mark(&res.VectorTime, t0)
					return finish(&BreakdownError{Iteration: i, Quantity: "residual", Value: rr[v]})
				}
			}
		}
		mark(&res.VectorTime, t0)
		res.Iterations++
		cgIterations.Inc()
	}
	return finish(nil)
}
