// Package vec provides the parallel dense-vector kernels the CG solver
// performs between SpM×V operations, chunked over a worker pool: the dot
// product, and fused kernels (SubCopyDots, CGStep) that run a CG iteration's
// whole axpy/dot/copy sequence — Jacobi's z = D⁻¹·r included — as one phase
// list: the per-thread partial sums cross phase boundaries through a padded
// scratch array, and every thread combines the partials itself after the
// barrier, so the chain costs one coordinator handoff instead of one per
// operation.
//
// The operations a solver repeats per iteration also come bound to their
// vectors (BindDot, BindCGStep, BindMultiDots, BindMultiCGStep): partial sums
// and phase list are built once, so the iterations allocate nothing.
//
// Every operation reaches the pool as a labelled phase list (op), so with
// sampling on the pool times it like any kernel: symspmv_vec_* metrics per
// operation and one vec/<operation> trace span per phase per worker.
package vec

import (
	"slices"

	"repro/internal/parallel"
)

// pad spaces per-thread partials one cache line apart.
const pad = 8

// op labels one vector operation: the template of its phase list — metric
// set and span names (all compute work), bodies filled in per call.
type op parallel.PhaseList

func newOp(name string, spans ...string) *op {
	o := &op{Metrics: parallel.NewOpMetrics("symspmv_vec", name)}
	for _, span := range spans {
		o.Phases = append(o.Phases, parallel.ComputePhase(span, nil))
	}
	return o
}

var (
	opDot              = newOp("dot", "vec/dot")
	opSubCopyDots      = newOp("subcopydots", "vec/subcopydots")
	opCGStep           = newOp("cgstep", "vec/cgstep-update", "vec/cgstep-direction")
	opMultiDots        = newOp("multidots", "vec/multidots")
	opMultiSubCopyDots = newOp("multisubcopydots", "vec/multisubcopydots")
	opMultiCGStep      = newOp("multicgstep", "vec/multicgstep-update", "vec/multicgstep-direction")
)

// bind returns the operation's phase list with the given phase bodies.
func (o *op) bind(bodies ...func(tid int)) *parallel.PhaseList {
	l := &parallel.PhaseList{Metrics: o.Metrics, Phases: slices.Clone(o.Phases)}
	for i, fn := range bodies {
		l.Phases[i].Fn = fn
	}
	return l
}

// Dot computes aᵀb in parallel (per-worker partial sums, combined serially —
// deterministic for a fixed pool size).
func Dot(pool *parallel.Pool, a, b []float64) float64 { return BindDot(pool, a, b)() }

// BindDot returns Dot bound to its operands: the partial sums and the phase
// list are built here, once, so the calls a solver makes per iteration
// allocate nothing. Like the pool, the result serves one call at a time.
func BindDot(pool *parallel.Pool, a, b []float64) func() float64 {
	np := pool.Size()
	partial := make([]float64, np*pad)
	l := opDot.bind(func(tid int) {
		lo, hi := parallel.Chunk(len(a), np, tid)
		a := a[lo:hi]
		b := b[lo:hi][:len(a)]
		sum := 0.0
		for i, ai := range a {
			sum += ai * b[i]
		}
		partial[tid*pad] = sum
	})
	return func() float64 {
		pool.RunPhaseList(l)
		total := 0.0
		for t := 0; t < np; t++ {
			total += partial[t*pad]
		}
		return total
	}
}

// SubCopyDots fuses the CG set-up chain into one coordinator handoff:
// r = b − ap, p = d∘r, returning bᵀb, rᵀz and rᵀr for z = d∘r. d is Jacobi's
// inverse diagonal; with d nil (plain CG) z is r and rz is rr. Partial sums
// are combined serially in thread order, so each result is bitwise the Dot
// of its two vectors.
func SubCopyDots(pool *parallel.Pool, d, r, p, b, ap []float64) (bb, rz, rr float64) {
	np := pool.Size()
	partial := make([]float64, 3*np*pad)
	pool.RunPhaseList(opSubCopyDots.bind(func(tid int) {
		lo, hi := parallel.Chunk(len(b), np, tid)
		b := b[lo:hi]
		r, p, ap := r[lo:hi][:len(b)], p[lo:hi][:len(b)], ap[lo:hi][:len(b)]
		sb, sz, sr := 0.0, 0.0, 0.0
		if d == nil {
			for i, bi := range b {
				ri := bi - ap[i]
				r[i] = ri
				p[i] = ri
				sb += bi * bi
				sr += ri * ri
			}
			sz = sr
		} else {
			d := d[lo:hi][:len(b)]
			for i, bi := range b {
				ri := bi - ap[i]
				r[i] = ri
				zi := ri * d[i]
				p[i] = zi
				sb += bi * bi
				sz += ri * zi
				sr += ri * ri
			}
		}
		partial[tid*pad] = sb
		partial[(np+tid)*pad] = sz
		partial[(2*np+tid)*pad] = sr
	}))
	for t := 0; t < np; t++ {
		bb += partial[t*pad]
		rz += partial[(np+t)*pad]
		rr += partial[(2*np+t)*pad]
	}
	return bb, rz, rr
}

// CGStep fuses the vector-operation tail of one CG iteration (Alg. 1) into a
// single coordinator handoff with one barrier inside:
//
//	phase 1: x += alpha·p,  r −= alpha·ap,  partial rrNew per thread
//	phase 2: every thread combines the partials (same serial order →
//	         deterministic), derives beta = rrNew/rrOld, and applies
//	         p = r + beta·p over its chunk
//
// It returns rrNew. The unfused equivalent costs four barriers (two axpys,
// a dot and an xpay); the arithmetic and summation order are identical, so
// the results match the unfused sequence bitwise.
func CGStep(pool *parallel.Pool, alpha, rrOld float64, p, ap, x, r []float64) float64 {
	_, rr := BindCGStep(pool, nil, p, ap, x, r)(alpha, rrOld)
	return rr
}

// BindCGStep returns CGStep bound to its vectors, as BindDot does for Dot,
// with Jacobi preconditioning folded in when d (the inverse diagonal) is
// non-nil: phase 1 also sums the partials of rᵀz for z = d∘r, and phase 2
// sets beta = rzNew/rzOld and p = z + beta·p, recomputing z rather than
// storing it. The step returns rᵀz and rᵀr; with d nil, z is r and both are
// rᵀr. The nil test picks the phase bodies here, once: plain CG runs
// CGStep's loops unchanged.
func BindCGStep(pool *parallel.Pool, d, p, ap, x, r []float64) func(alpha, rzOld float64) (rz, rr float64) {
	np := pool.Size()
	partial := make([]float64, 2*np*pad) // per thread: rᵀr, then rᵀz (Jacobi)
	var alpha, rzOld, rzNew, rrNew float64
	n := len(r)
	// Every slice is cut to the chunk once, so one bounds proof covers each
	// loop.
	update := func(tid int) {
		lo, hi := parallel.Chunk(n, np, tid)
		r := r[lo:hi]
		x, p, ap := x[lo:hi][:len(r)], p[lo:hi][:len(r)], ap[lo:hi][:len(r)]
		sum := 0.0
		for i, ri := range r {
			x[i] += alpha * p[i]
			ri -= alpha * ap[i]
			r[i] = ri
			sum += ri * ri
		}
		partial[tid*pad] = sum
	}
	direction := func(tid int) {
		total := 0.0
		for t := 0; t < np; t++ {
			total += partial[t*pad]
		}
		beta := total / rzOld
		lo, hi := parallel.Chunk(n, np, tid)
		p := p[lo:hi]
		r := r[lo:hi][:len(p)]
		for i, pi := range p {
			p[i] = r[i] + beta*pi
		}
		if tid == 0 {
			rzNew, rrNew = total, total
		}
	}
	if d != nil {
		update = func(tid int) {
			lo, hi := parallel.Chunk(n, np, tid)
			r := r[lo:hi]
			x, p, ap, d := x[lo:hi][:len(r)], p[lo:hi][:len(r)], ap[lo:hi][:len(r)], d[lo:hi][:len(r)]
			sz, sr := 0.0, 0.0
			for i, ri := range r {
				x[i] += alpha * p[i]
				ri -= alpha * ap[i]
				r[i] = ri
				sz += ri * (ri * d[i])
				sr += ri * ri
			}
			partial[tid*pad] = sr
			partial[(np+tid)*pad] = sz
		}
		direction = func(tid int) {
			rz, rr := 0.0, 0.0
			for t := 0; t < np; t++ {
				rr += partial[t*pad]
				rz += partial[(np+t)*pad]
			}
			beta := rz / rzOld
			lo, hi := parallel.Chunk(n, np, tid)
			p := p[lo:hi]
			r, d := r[lo:hi][:len(p)], d[lo:hi][:len(p)]
			for i, pi := range p {
				p[i] = r[i]*d[i] + beta*pi
			}
			if tid == 0 {
				rzNew, rrNew = rz, rr
			}
		}
	}
	l := opCGStep.bind(update, direction)
	return func(a, rz float64) (float64, float64) {
		alpha, rzOld = a, rz
		pool.RunPhaseList(l)
		return rzNew, rrNew
	}
}
