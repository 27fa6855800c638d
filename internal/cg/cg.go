// Package cg implements the non-preconditioned Conjugate Gradient method
// (Alg. 1 in the paper) over any SpM×V kernel, with per-phase wall-clock
// instrumentation (SpM×V vs vector operations vs format preprocessing) —
// the measurement Fig. 14 reports. Every solve is one loop over nv
// lane-interleaved right-hand sides: Solve runs one lane, SolveBlock nv over
// one SpMM per iteration, and Jacobi-preconditioned CG (SolveJacobi) is one
// lane with the inverse diagonal as the loop's one parameter.
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
// reduction phase). When the operator passed to Solve or SolveJacobi also
// implements this interface, each CG iteration needs only two coordinator
// handoffs — the fused SpM×V+dot and the fused vector-update chain — instead
// of three. The fused dot must be bitwise identical to vec.Dot(x, y) over
// the finished output (per-thread partials over parallel.Chunk ranges,
// combined in thread order), which keeps the solve's trajectory independent
// of whether the fast path is taken.
type MulVecDotter interface {
	MulVecer
	MulVecDot(x, y []float64) float64
}

// MulVecFunc adapts a function to MulVecer.
type MulVecFunc func(x, y []float64)

// MulVec implements MulVecer.
func (f MulVecFunc) MulVec(x, y []float64) { f(x, y) }

// MulMater is the SpMM interface the block solver consumes: one matrix
// stream updating nv interleaved right-hand sides (y[i*nv+v] lane layout).
type MulMater interface {
	MulMat(x, y []float64, nv int) error
}

// Operator is a kernel given by its products over nv interleaved lanes, the
// operator the loop runs on: Mul computes y = A·x, and MulDot, nil when the
// kernel has no fused dot, computes it and sets dots[v] to lane v's xᵀy in the
// same dispatch — MulVecDotter at every width, each lane bitwise
// vec.MultiDots over the finished y. Solve and SolveBlock take it like any
// other operator and use its fields directly.
type Operator struct {
	Mul    func(x, y []float64, nv int) error
	MulDot func(x, y []float64, nv int, dots []float64) error
}

// MulVec implements MulVecer; an operator that fails at one lane panics.
func (o Operator) MulVec(x, y []float64) {
	if err := o.Mul(x, y, 1); err != nil {
		panic(err)
	}
}

// MulMat implements MulMater.
func (o Operator) MulMat(x, y []float64, nv int) error { return o.Mul(x, y, nv) }

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

// Solve runs CG on A·x = b starting from x (updated in place), using pool
// for the vector operations. A is any SpM×V kernel; it must represent a
// symmetric positive definite operator for CG to converge.
//
// The per-iteration chain is phase-fused: the pᵀ·Ap dot rides inside the
// kernel when A implements MulVecDotter or is an Operator with MulDot
// (counted under SpMVTime, since it shares the kernel's dispatch), and the
// axpy/dot/xpay tail runs as one fused step. A fused iteration costs two
// coordinator handoffs; without the kernel fast path it costs three (SpM×V,
// dot, step). The arithmetic is ordered identically on every path, so the
// iterates are bitwise reproducible across all of them.
//
// Solve returns a *BreakdownError when the recurrence cannot continue:
// pᵀ·Ap non-positive or non-finite (A not SPD along p, or NaN/Inf in A, b,
// or x₀), or a non-finite residual. Running to MaxIter without reaching Tol
// is not an error — that outcome is reported by Result.Converged. With
// Options.FixedIterations the breakdown checks are skipped entirely: the
// paper's timing protocol runs a fixed iteration count for identical work
// per format, and a mid-run exit would break that accounting.
func Solve(a MulVecer, pool *parallel.Pool, b, x []float64, opts Options) (Result, error) {
	return solveOne(a, nil, pool, b, x, opts)
}

// SolveJacobi runs Jacobi-preconditioned CG on A·x = b: Solve's loop with
// the element-wise z = D⁻¹·r (D = diag(A), passed as diag) folded into its
// two vector sweeps, so an iteration costs Solve's handoffs and allocates
// nothing. A zero diagonal entry leaves its row unpreconditioned. Besides
// Solve's breakdowns it reports a vanishing or non-finite rᵀ·z, which β
// divides by.
func SolveJacobi(a MulVecer, diag []float64, pool *parallel.Pool, b, x []float64, opts Options) (Result, error) {
	if len(diag) != len(b) {
		panic(fmt.Sprintf("cg: len(diag)=%d, len(b)=%d", len(diag), len(b)))
	}
	inv := make([]float64, len(diag))
	for i, d := range diag {
		inv[i] = 1
		if d != 0 {
			inv[i] = 1 / d
		}
	}
	return solveOne(a, inv, pool, b, x, opts)
}

// SolveBlock runs nv simultaneous CG recurrences over the interleaved
// right-hand sides b (b[i*nv+v] is lane v of row i), updating x in place in
// the same layout: Solve's loop at nv lanes. Each lane follows the classic CG
// recurrence with its own alpha/beta scalars; only the matrix stream is
// shared, so one SpMM per iteration replaces nv SpMVs — this is where the
// multi-RHS bandwidth win comes from, since CG iterations are otherwise
// memory-bound on A. An Operator with MulDot fuses the per-lane pᵀ·Ap into
// the SpMM, so an iteration costs two coordinator handoffs; any other
// MulMater three (SpMM, dots, step).
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
	op, ok := a.(Operator)
	if !ok {
		op.Mul = a.MulMat
	}
	return solve(op, nil, pool, b, x, nv, opts)
}

// solveOne runs the loop at one lane, on a as the Operator it is or wraps.
func solveOne(a MulVecer, invDiag []float64, pool *parallel.Pool, b, x []float64, opts Options) (Result, error) {
	if len(x) != len(b) {
		panic(fmt.Sprintf("cg: len(x)=%d, len(b)=%d", len(x), len(b)))
	}
	op, ok := a.(Operator)
	if !ok {
		op.Mul = func(x, y []float64, _ int) error { a.MulVec(x, y); return nil }
		if f, ok := a.(MulVecDotter); ok {
			op.MulDot = func(x, y []float64, _ int, dots []float64) error { dots[0] = f.MulVecDot(x, y); return nil }
		}
	}
	res, err := solve(op, invDiag, pool, b, x, 1, opts)
	return Result{Iterations: res.Iterations, Converged: res.Converged[0], Residual: res.Residuals[0],
		SpMVTime: res.SpMVTime, VectorTime: res.VectorTime, TotalTime: res.TotalTime}, err
}

// solve is the one CG loop: nv lane-interleaved systems advanced in lockstep,
// each lane with its own α and β, sharing every product by a. invDiag nil is
// plain CG (z is r, rᵀz is rᵀr), otherwise Jacobi-preconditioned CG, which
// the vector step runs at one lane only.
//
// A lane that reaches Tol is done: its α is forced to 0, so its x and r stop
// moving, while the rest continue; the iteration stops when every lane is
// done or MaxIter is reached. A breakdown names the first offending lane.
func solve(a Operator, invDiag []float64, pool *parallel.Pool, b, x []float64, nv int, opts Options) (BlockResult, error) {
	n := len(b) / nv
	if opts.MaxIter == 0 {
		opts.MaxIter = 10 * n
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-10
	}
	cgSolves.Inc()
	sampled := obs.SamplingEnabled()

	r := make([]float64, n*nv)
	p := make([]float64, n*nv)
	ap := make([]float64, n*nv)
	// Per lane: ‖b‖² then ‖b‖, rᵀz, rᵀr, pᵀAp, α, the step's new rᵀz and rᵀr,
	// and the tolerance on rᵀr.
	bb, rz, rr, pap, alpha, rzNew, rrNew, tol2 := make([]float64, nv), make([]float64, nv),
		make([]float64, nv), make([]float64, nv), make([]float64, nv), make([]float64, nv),
		make([]float64, nv), make([]float64, nv)
	done := make([]bool, nv)
	// The iteration's vector operations, bound once to the solve's vectors
	// with their partial sums and phase lists: an iteration allocates nothing.
	step := vec.BindStep(pool, invDiag, p, ap, x, r, nv)
	var dots func(out []float64)
	if a.MulDot == nil {
		dots = vec.BindMultiDots(pool, p, ap, nv)
	}

	res := BlockResult{NV: nv, Converged: make([]bool, nv), Residuals: make([]float64, nv)}
	start := time.Now()
	solveStart := obs.Now()
	mark := func(d *time.Duration, t0 time.Time) { *d += time.Since(t0) }
	finish := func(err error) (BlockResult, error) {
		for v := range nv {
			res.Converged[v] = err == nil && rr[v] <= tol2[v]
			res.Residuals[v] = math.Sqrt(math.Max(rr[v], 0)) / bb[v]
		}
		res.TotalTime = time.Since(start)
		if sampled && obs.TracingEnabled() {
			// One whole-solve span grouping the iteration spans, annotated
			// with the iteration count so perfetto can filter short solves.
			obs.TraceSpanArg(obs.LaneCoordinator, cgNameSolve, solveStart, obs.Now(),
				cgArgIters, int64(res.Iterations))
		}
		return res, err
	}
	breakdown := func(i, v int, quantity string, value float64) (BlockResult, error) {
		return finish(&BreakdownError{Iteration: i, Lane: v, Quantity: quantity, Value: value, lanes: nv})
	}

	// r₀ = b − A·x₀ ; z₀ = D⁻¹·r₀ ; p₀ = z₀ ; per lane ‖b‖², r₀ᵀz₀ and r₀ᵀr₀
	// in the same sweep.
	t0 := time.Now()
	err := a.Mul(x, ap, nv)
	mark(&res.SpMVTime, t0)
	if err != nil {
		return finish(err)
	}
	t0 = time.Now()
	vec.SetUp(pool, invDiag, r, p, b, ap, nv, bb, rz, rr)
	mark(&res.VectorTime, t0)
	for v := range nv {
		if bb[v] = math.Sqrt(bb[v]); bb[v] == 0 {
			bb[v] = 1
		}
		tol2[v] = (opts.Tol * bb[v]) * (opts.Tol * bb[v])
	}
	for v := range nv {
		if !opts.FixedIterations && !isFinite(rr[v]) {
			return breakdown(0, v, "residual", rr[v])
		}
	}

	for i := 0; i < opts.MaxIter; i++ {
		live := 0
		for v := range nv {
			done[v] = done[v] || rr[v] <= tol2[v] && !opts.FixedIterations
			if !done[v] {
				live++
			}
		}
		if live == 0 {
			break
		}
		if cerr := ctxErr(opts.Context, i); cerr != nil {
			return finish(cerr)
		}
		var itStart, itMid int64
		if sampled {
			itStart = obs.Now()
		}
		t0 = time.Now()
		if a.MulDot != nil {
			err = a.MulDot(p, ap, nv, pap)
		} else {
			err = a.Mul(p, ap, nv)
		}
		mark(&res.SpMVTime, t0)
		if err != nil {
			return finish(err)
		}
		if sampled {
			itMid = obs.Now()
		}
		t0 = time.Now()
		if dots != nil {
			dots(pap)
		}
		for v := range nv {
			alpha[v] = 0 // a done lane stops moving; see vec.MultiCGStep
			if done[v] {
				continue
			}
			if !opts.FixedIterations && (pap[v] <= 0 || !isFinite(pap[v])) {
				// Breakdown: A is not SPD along p, or NaN/Inf entered the
				// recurrence. x still holds the last finite iterate. Note
				// that a bare `pap <= 0` is not enough — NaN fails that
				// comparison, which is how the pre-fix solver ended up
				// iterating on NaN.
				mark(&res.VectorTime, t0)
				return breakdown(i, v, "pAp", pap[v])
			}
			if !opts.FixedIterations && (rz[v] == 0 || !isFinite(rz[v])) {
				// β = rz'/rz: a vanished or non-finite rz poisons every later
				// search direction. (Plain CG's rz is rr, which the checks
				// above already hold finite and above tol2.)
				mark(&res.VectorTime, t0)
				return breakdown(i, v, "rz", rz[v])
			}
			alpha[v] = rz[v] / pap[v]
		}
		// x += α·p ; r −= α·A·p ; z = D⁻¹·r ; rz' = rᵀz, rr' = rᵀr ;
		// p = z + (rz'/rz)·p — one handoff.
		step(alpha, rz, rzNew, rrNew)
		worst := 0.0
		for v := range nv {
			if !done[v] {
				rz[v], rr[v] = rzNew[v], rrNew[v]
				worst = max(worst, math.Sqrt(math.Max(rr[v], 0))/bb[v])
			}
		}
		mark(&res.VectorTime, t0)
		res.Iterations++
		cgIterations.Inc()
		if sampled {
			itEnd := obs.Now()
			obs.TraceSpan(obs.LaneCoordinator, cgNameSpMV, itStart, itMid)
			obs.TraceSpan(obs.LaneCoordinator, cgNameVec, itMid, itEnd)
			obs.TraceSpan(obs.LaneCoordinator, cgNameIter, itStart, itEnd)
			cgIterSeconds.Observe(float64(itEnd-itStart) / 1e9)
			cgResidual.Set(worst)
		}
		for v := range nv {
			if !done[v] && !opts.FixedIterations && !isFinite(rr[v]) {
				return breakdown(i, v, "residual", rr[v])
			}
		}
	}
	return finish(nil)
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
