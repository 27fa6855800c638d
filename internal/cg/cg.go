// Package cg implements the non-preconditioned Conjugate Gradient method
// (Alg. 1 in the paper) over any SpM×V kernel, with per-phase wall-clock
// instrumentation (SpM×V vs vector operations vs format preprocessing) —
// the measurement Fig. 14 reports.
package cg

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/vec"
)

// Solver telemetry. Counters run unconditionally (one atomic add per solve /
// per iteration, invisible next to an SpM×V); the histogram, residual gauge,
// and coordinator-lane trace spans are recorded only while obs sampling is
// enabled.
var (
	cgSolves = obs.NewCounter("symspmv_cg_solves_total",
		"CG/PCG solves started.")
	cgIterations = obs.NewCounter("symspmv_cg_iterations_total",
		"CG/PCG iterations executed.")
	cgIterSeconds = obs.NewHistogram("symspmv_cg_iteration_seconds",
		"Wall time per sampled CG iteration.", obs.DurationBuckets)
	cgResidual = obs.NewGauge("symspmv_cg_residual",
		"Relative residual after the most recent sampled CG iteration.")

	cgNameIter  = obs.RegisterName("cg/iteration")
	cgNameSpMV  = obs.RegisterName("cg/spmv")
	cgNameVec   = obs.RegisterName("cg/vector")
	cgNameSolve = obs.RegisterName("cg/solve")
	cgArgIters  = obs.RegisterName("iterations")
)

// MulVecer is the SpM×V interface CG consumes: every storage format in the
// library provides it (directly or through a small adapter).
type MulVecer interface {
	MulVec(x, y []float64)
}

// MulVecDotter is the fused fast path: a kernel that computes y = A·x and
// returns xᵀ·y in one parallel dispatch (the dot rides inside the kernel's
// reduction phase). When the operator passed to Solve also implements this
// interface, each CG iteration needs only two coordinator handoffs — the
// fused SpM×V+dot and the fused vector-update chain — instead of six
// barrier-terminated operations. The fused dot must be bitwise identical to
// vec.Dot(x, y) over the finished output (per-thread partials over
// parallel.Chunk ranges, combined in thread order), which keeps Solve's
// trajectory independent of whether the fast path is taken.
type MulVecDotter interface {
	MulVecer
	MulVecDot(x, y []float64) float64
}

// MulVecFunc adapts a function to MulVecer.
type MulVecFunc func(x, y []float64)

// MulVec implements MulVecer.
func (f MulVecFunc) MulVec(x, y []float64) { f(x, y) }

// Options controls the solver run.
type Options struct {
	// MaxIter caps the iterations; 0 means 10·N.
	MaxIter int
	// Tol is the relative residual target ‖r‖/‖b‖; 0 means 1e-10.
	Tol float64
	// FixedIterations forces exactly MaxIter iterations regardless of
	// convergence (the paper's Fig. 14 runs a fixed 2048 iterations so that
	// every format does identical work).
	FixedIterations bool
	// Context, when non-nil, is checked between iterations: a cancelled or
	// expired context stops the solve with an error wrapping
	// context.Canceled / context.DeadlineExceeded (match with errors.Is).
	// x holds the last completed iterate. The check never interrupts an
	// iteration mid-flight — an SpM×V dispatch always runs to its barrier —
	// so cancellation latency is one iteration, not one solve.
	Context context.Context
}

// ctxErr reports a terminated Context as the typed error the solvers
// return; nil when the solve should continue.
func ctxErr(ctx context.Context, iteration int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cg: iteration %d: %w", iteration, err)
	}
	return nil
}

// Result reports the solve outcome and the phase breakdown.
type Result struct {
	Iterations int
	Converged  bool
	Residual   float64 // final relative residual ‖r‖/‖b‖

	SpMVTime   time.Duration // time inside A·p
	VectorTime time.Duration // dots, axpys, copies
	TotalTime  time.Duration
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("iters=%d converged=%v rel.res=%.3e total=%v (spmv %v, vector %v)",
		r.Iterations, r.Converged, r.Residual, r.TotalTime.Round(time.Microsecond),
		r.SpMVTime.Round(time.Microsecond), r.VectorTime.Round(time.Microsecond))
}

// Solve runs CG on A·x = b starting from x (updated in place), using pool
// for the vector operations. A is any SpM×V kernel; it must represent a
// symmetric positive definite operator for CG to converge.
//
// The per-iteration chain is phase-fused: the pᵀ·Ap dot rides inside the
// kernel when A implements MulVecDotter (counted under SpMVTime, since it
// shares the kernel's dispatch), and the axpy/dot/xpay tail runs as one
// vec.CGStep. A fused iteration costs two coordinator handoffs; without the
// kernel fast path it costs three (SpM×V, dot, CGStep). The arithmetic is
// ordered identically on every path, so the iterates are bitwise
// reproducible across all of them.
//
// Solve returns a *BreakdownError when the recurrence cannot continue:
// pᵀ·Ap non-positive or non-finite (A not SPD along p, or NaN/Inf in A, b,
// or x₀), or a non-finite residual. Running to MaxIter without reaching Tol
// is not an error — that outcome is reported by Result.Converged. With
// Options.FixedIterations the breakdown checks are skipped entirely: the
// paper's timing protocol runs a fixed iteration count for identical work
// per format, and a mid-run exit would break that accounting.
func Solve(a MulVecer, pool *parallel.Pool, b, x []float64, opts Options) (Result, error) {
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
	fused, _ := a.(MulVecDotter)
	cgSolves.Inc()
	sampled := obs.SamplingEnabled()

	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	// The iteration's vector operations, bound once to the solve's vectors
	// with their partial sums and phase lists: an iteration allocates nothing.
	step := vec.BindCGStep(pool, p, ap, x, r)
	var dot func() float64
	if fused == nil {
		dot = vec.BindDot(pool, p, ap)
	}

	var res Result
	start := time.Now()
	solveStart := obs.Now()
	mark := func(d *time.Duration, t0 time.Time) { *d += time.Since(t0) }
	finish := func(rr, normB float64, err error) (Result, error) {
		if err == nil && rr <= (opts.Tol*normB)*(opts.Tol*normB) {
			res.Converged = true
		}
		res.Residual = math.Sqrt(math.Max(rr, 0)) / normB
		res.TotalTime = time.Since(start)
		if sampled && obs.TracingEnabled() {
			// One whole-solve span grouping the iteration spans, annotated
			// with the iteration count so perfetto can filter short solves.
			obs.TraceSpanArg(obs.LaneCoordinator, cgNameSolve, solveStart, obs.Now(),
				cgArgIters, int64(res.Iterations))
		}
		return res, err
	}

	// r₀ = b − A·x₀ ; p₀ = r₀ ; ‖b‖² and r₀ᵀr₀ in the same sweep.
	t0 := time.Now()
	a.MulVec(x, ap)
	mark(&res.SpMVTime, t0)
	t0 = time.Now()
	bb, rr := vec.SubCopyDots(pool, r, p, b, ap)
	normB := math.Sqrt(bb)
	if normB == 0 {
		normB = 1
	}
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
		var pap float64
		if fused != nil {
			t0 = time.Now()
			pap = fused.MulVecDot(p, ap)
			mark(&res.SpMVTime, t0)
			if sampled {
				itMid = obs.Now()
			}
			t0 = time.Now()
		} else {
			t0 = time.Now()
			a.MulVec(p, ap)
			mark(&res.SpMVTime, t0)
			if sampled {
				itMid = obs.Now()
			}
			t0 = time.Now()
			pap = dot()
		}
		if !opts.FixedIterations && (pap <= 0 || !isFinite(pap)) {
			// Breakdown: A is not SPD along p, or NaN/Inf entered the
			// recurrence. x still holds the last finite iterate. Note that a
			// bare `pap <= 0` is not enough — NaN fails that comparison,
			// which is how the pre-fix solver ended up iterating on NaN.
			mark(&res.VectorTime, t0)
			return finish(rr, normB, &BreakdownError{Iteration: i, Quantity: "pAp", Value: pap})
		}
		alpha := rr / pap
		// x += α·p ; r −= α·A·p ; rr' = rᵀr ; p = r + (rr'/rr)·p — one handoff.
		rr = step(alpha, rr)
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

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
