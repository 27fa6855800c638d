// Package vec provides the parallel dense-vector kernels the CG solver
// performs between SpM×V operations: dot products, axpy-style updates,
// copies and norms, all chunked over a worker pool.
//
// Besides the classic one-operation-per-barrier kernels, the package offers
// fused kernels (SubCopyDots, CGStep) that run a CG iteration's whole
// axpy/dot/copy sequence as one phase list: the per-thread partial sums
// cross phase boundaries through a padded scratch array, and every thread
// combines the partials itself after the barrier, so the chain costs one
// coordinator handoff instead of one per operation.
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
	"math"
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
	opAxpy             = newOp("axpy", "vec/axpy")
	opXpay             = newOp("xpay", "vec/xpay")
	opCopy             = newOp("copy", "vec/copy")
	opScale            = newOp("scale", "vec/scale")
	opSub              = newOp("sub", "vec/sub")
	opFill             = newOp("fill", "vec/fill")
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

// chunked executes a one-phase operation over parallel.Chunk ranges of
// [0, n): fn(tid, lo, hi) per worker, empty chunks included.
func (o *op) chunked(pool *parallel.Pool, n int, fn func(tid, lo, hi int)) {
	np := pool.Size()
	pool.RunPhaseList(o.bind(func(tid int) {
		lo, hi := parallel.Chunk(n, np, tid)
		fn(tid, lo, hi)
	}))
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
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += a[i] * b[i]
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

// Axpy computes y += alpha·x.
func Axpy(pool *parallel.Pool, alpha float64, x, y []float64) {
	opAxpy.chunked(pool, len(x), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i]
		}
	})
}

// Xpay computes y = x + alpha·y (the CG direction update p = r + β·p).
func Xpay(pool *parallel.Pool, alpha float64, x, y []float64) {
	opXpay.chunked(pool, len(x), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = x[i] + alpha*y[i]
		}
	})
}

// Copy copies src into dst in parallel.
func Copy(pool *parallel.Pool, dst, src []float64) {
	opCopy.chunked(pool, len(src), func(_, lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// Scale computes x *= alpha.
func Scale(pool *parallel.Pool, alpha float64, x []float64) {
	opScale.chunked(pool, len(x), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] *= alpha
		}
	})
}

// Sub computes dst = a - b.
func Sub(pool *parallel.Pool, dst, a, b []float64) {
	opSub.chunked(pool, len(a), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = a[i] - b[i]
		}
	})
}

// Norm2 computes the Euclidean norm ‖x‖₂.
func Norm2(pool *parallel.Pool, x []float64) float64 {
	return math.Sqrt(Dot(pool, x, x))
}

// Fill sets every element to v.
func Fill(pool *parallel.Pool, x []float64, v float64) {
	opFill.chunked(pool, len(x), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] = v
		}
	})
}

// SubCopyDots fuses the CG setup chain into one coordinator handoff:
// r = b − ap, p = r, returning bᵀb and rᵀr. Partial sums are combined
// serially in thread order, so the results are bitwise identical to the
// unfused Sub/Copy/Dot/Dot sequence.
func SubCopyDots(pool *parallel.Pool, r, p, b, ap []float64) (bb, rr float64) {
	np := pool.Size()
	partial := make([]float64, 2*np*pad)
	n := len(b)
	opSubCopyDots.chunked(pool, n, func(tid, lo, hi int) {
		sb, sr := 0.0, 0.0
		for i := lo; i < hi; i++ {
			bi := b[i]
			ri := bi - ap[i]
			r[i] = ri
			p[i] = ri
			sb += bi * bi
			sr += ri * ri
		}
		partial[tid*pad] = sb
		partial[(np+tid)*pad] = sr
	})
	for t := 0; t < np; t++ {
		bb += partial[t*pad]
		rr += partial[(np+t)*pad]
	}
	return bb, rr
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
	return BindCGStep(pool, p, ap, x, r)(alpha, rrOld)
}

// BindCGStep returns CGStep bound to its vectors, as BindDot does for Dot.
func BindCGStep(pool *parallel.Pool, p, ap, x, r []float64) func(alpha, rrOld float64) float64 {
	np := pool.Size()
	partial := make([]float64, np*pad)
	var alpha, rrOld, rrNew float64
	n := len(r)
	l := opCGStep.bind(
		func(tid int) {
			lo, hi := parallel.Chunk(n, np, tid)
			sum := 0.0
			for i := lo; i < hi; i++ {
				x[i] += alpha * p[i]
				ri := r[i] - alpha*ap[i]
				r[i] = ri
				sum += ri * ri
			}
			partial[tid*pad] = sum
		},
		func(tid int) {
			total := 0.0
			for t := 0; t < np; t++ {
				total += partial[t*pad]
			}
			beta := total / rrOld
			lo, hi := parallel.Chunk(n, np, tid)
			for i := lo; i < hi; i++ {
				p[i] = r[i] + beta*p[i]
			}
			if tid == 0 {
				rrNew = total
			}
		},
	)
	return func(a, rr float64) float64 {
		alpha, rrOld = a, rr
		pool.RunPhaseList(l)
		return rrNew
	}
}
