// Package vec provides the parallel dense-vector kernels the CG solver
// performs between SpM×V operations, chunked over a worker pool, on nv
// lane-interleaved right-hand sides (component v of row i at x[i*nv+v],
// matching the SpMM kernels): the per-lane dot product, and fused kernels
// (SetUp, BindStep) that run a CG iteration's whole axpy/dot/copy sequence —
// Jacobi's z = D⁻¹·r included — as one phase list: the per-thread
// partial sums cross phase boundaries through a padded scratch array, and
// every thread combines the partials itself after the barrier, so the chain
// costs one coordinator handoff instead of one per operation.
//
// Every body is a cell of one template (internal/core/gen), at lane width 1,
// 2, 4, 8 or any nv (cell picks it); the single-vector operations are
// the width-1 cells. The operations a solver repeats per iteration come bound
// to their vectors (BindMultiDots, BindStep): partial sums and phase list are
// built once, so the iterations allocate nothing.
//
// Every operation reaches the pool as a labelled phase list (op), so with
// sampling on the pool times it like any kernel: symspmv_vec_* metrics per
// operation and one vec/<operation> trace span per phase per worker.
package vec

import (
	"fmt"
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

// The labels, one lane and nv lanes: an operation at one lane files under
// the single-vector label.
var (
	opDot              = newOp("dot", "vec/dot")
	opSubCopyDots      = newOp("subcopydots", "vec/subcopydots")
	opCGStep           = newOp("cgstep", "vec/cgstep-update", "vec/cgstep-direction")
	opMultiDots        = newOp("multidots", "vec/multidots")
	opMultiSubCopyDots = newOp("multisubcopydots", "vec/multisubcopydots")
	opMultiCGStep      = newOp("multicgstep", "vec/multicgstep-update", "vec/multicgstep-direction")
)

// label picks the one-lane or the nv-lane label.
func label(nv int, one, multi *op) *op {
	if nv == 1 {
		return one
	}
	return multi
}

// bind returns the operation's phase list with the given phase bodies.
func (o *op) bind(bodies ...func(tid int)) *parallel.PhaseList {
	l := &parallel.PhaseList{Metrics: o.Metrics, Phases: slices.Clone(o.Phases)}
	for k, fn := range bodies {
		l.Phases[k].Fn = fn
	}
	return l
}

// Dot computes aᵀb in parallel (per-worker partial sums, combined serially —
// deterministic for a fixed pool size).
func Dot(pool *parallel.Pool, a, b []float64) float64 {
	var s [1]float64
	MultiDots(pool, a, b, 1, s[:])
	return s[0]
}

// CGStep is MultiCGStep on one right-hand side (Alg. 1's vector tail in one
// coordinator handoff, where the unfused axpy, axpy, dot and xpay cost four
// barriers, with the same arithmetic in the same order). It returns rrNew.
func CGStep(pool *parallel.Pool, alpha, rrOld float64, p, ap, x, r []float64) float64 {
	s := []float64{alpha, rrOld, 0}
	BindStep(pool, nil, p, ap, x, r, 1)(s[0:1], s[1:2], s[2:3], s[2:3])
	return s[2]
}

// lanes is one nv-lane operation bound to its vectors, its per-thread
// partial sums and its per-call α and β inputs. Its phase bodies are the
// cells of multi_gen.go, generated with the kernel's multiply bodies by
// internal/core/gen: at nv ∈ {1, 2, 4, 8} every lane's sum, α and β is a
// register, and the partials are written once per chunk.
type lanes struct {
	nv, n, np                  int // lanes, rows, threads
	stride                     int // a thread's block of partials: nv per sum, padded apart
	partial                    []float64
	b, ap, p, r, x, d          []float64
	alpha, rzOld, rzNew, rrNew []float64
}

func newLanes(pool *parallel.Pool, nv, rows, sums int) *lanes {
	m := &lanes{nv: nv, n: rows, np: pool.Size(), stride: sums*nv + pad}
	m.partial = make([]float64, m.np*m.stride)
	return m
}

// cell picks an operation's body by lane width: the register-blocked cell
// for nv ∈ {1, 2, 4, 8}, the nv cell otherwise.
func cell[F any](nv int, w1, anyNV, w2, w4, w8 F) F {
	switch nv {
	case 1:
		return w1
	case 2:
		return w2
	case 4:
		return w4
	case 8:
		return w8
	}
	return anyNV
}

// jacobi picks the Jacobi body, which exists at one lane only: no solver
// preconditions nv > 1 lanes.
func (m *lanes) jacobi(plain, jacobi func(int)) func(int) {
	if m.d == nil {
		return plain
	}
	if m.nv != 1 {
		panic(fmt.Sprintf("vec: Jacobi at nv=%d lanes", m.nv))
	}
	return jacobi
}

// total sets out[v] to lane v of sum k over every thread's partials,
// combined in thread order.
func (m *lanes) total(out []float64, k int) {
	out = out[:m.nv]
	clear(out)
	for t := range m.np {
		for v, s := range m.partial[t*m.stride+k*m.nv:][:m.nv] {
			out[v] += s
		}
	}
}

// betas is the direction phase's prologue: lane v's rᵀz (sum 0 of the
// update, rᵀr in plain CG) over every thread's partials, combined in thread
// order into this thread's slots, handed out with rᵀr (sum 1 under Jacobi)
// by thread 0, and returned as β = rzNew/rzOld. A lane frozen at an exact
// zero residual has rzOld = 0: 0/0 would poison p with NaN, and 0·NaN would
// then poison x on the next step. Its direction is never read again, so any
// finite β does.
func (m *lanes) betas(tid int) []float64 {
	b := m.partial[tid*m.stride+2*m.nv:][:m.nv]
	m.total(b, 0)
	if tid == 0 {
		copy(m.rzNew, b)
		if m.d == nil {
			copy(m.rrNew, b)
		} else {
			m.total(m.rrNew, 1)
		}
	}
	for v, old := range m.rzOld[:m.nv] {
		b[v] /= old
		if old == 0 {
			b[v] = 0
		}
	}
	return b
}

// LaneDots adds each lane's a∘b terms to s[v] (len(s) lanes, interleaved in
// a and b), row by row: the serial sweep of MultiDots, which the kernel's
// fused dot runs over its own rows.
func LaneDots(a, b, s []float64) {
	cell(len(s), laneDots1, laneDots, laneDots2, laneDots4, laneDots8)(a, b, s)
}

// MultiDots computes the nv per-lane dot products out[v] = Σ_i a[i*nv+v]·b[i*nv+v]
// in parallel. Partials are combined serially in thread order, so each lane's
// result is bitwise identical to the single-vector Dot over that lane.
func MultiDots(pool *parallel.Pool, a, b []float64, nv int, out []float64) {
	BindMultiDots(pool, a, b, nv)(out)
}

// BindMultiDots returns MultiDots bound to its vectors: the partial sums and
// the phase list are built here, once, so the calls a solver makes per
// iteration allocate nothing. Like the pool, the result serves one call at a
// time.
func BindMultiDots(pool *parallel.Pool, a, b []float64, nv int) func(out []float64) {
	m := newLanes(pool, nv, len(a)/nv, 1)
	dots := cell(nv, laneDots1, laneDots, laneDots2, laneDots4, laneDots8)
	l := label(nv, opDot, opMultiDots).bind(func(tid int) {
		lo, hi := parallel.Chunk(m.n, m.np, tid)
		s := m.partial[tid*m.stride:][:nv]
		clear(s)
		dots(a[lo*nv:hi*nv], b[lo*nv:hi*nv], s)
	})
	return func(out []float64) {
		pool.RunPhaseList(l)
		m.total(out, 0)
	}
}

// MultiSubCopyDots is the plain CG set-up at nv lanes: r = b − ap, p = r,
// filling bb[v] = Σ b²-lane-v and rr[v] = Σ r²-lane-v, in one coordinator
// handoff.
func MultiSubCopyDots(pool *parallel.Pool, r, p, b, ap []float64, nv int, bb, rr []float64) {
	SetUp(pool, nil, r, p, b, ap, nv, bb, rr, rr)
}

// SetUp is the CG set-up at nv lanes, with Jacobi's inverse diagonal d (nil:
// plain CG, where z is r; non-nil at one lane only): r = b − ap, p = z = d∘r,
// filling per lane bᵀb, rᵀz and rᵀr, in one coordinator handoff. Partial
// sums are combined serially in thread order, so each is bitwise the Dot of
// its two vectors.
func SetUp(pool *parallel.Pool, d, r, p, b, ap []float64, nv int, bb, rz, rr []float64) {
	m := newLanes(pool, nv, len(b)/nv, 3)
	m.r, m.p, m.b, m.ap, m.d = r, p, b, ap, d
	pool.RunPhaseList(label(nv, opSubCopyDots, opMultiSubCopyDots).bind(m.jacobi(
		cell(nv, m.subCopyDots1T, m.subCopyDotsT, m.subCopyDots2T, m.subCopyDots4T, m.subCopyDots8T),
		m.jacobiSubCopyDots1T)))
	m.total(bb, 0)
	m.total(rr, 1)
	if d != nil {
		m.total(rz, 2)
	} else {
		copy(rz, rr)
	}
}

// MultiCGStep is the nv-lane CGStep: for every lane v,
//
//	x_v += alpha[v]·p_v,  r_v −= alpha[v]·ap_v,  rrNew[v] = r_vᵀr_v
//	beta[v] = rrNew[v]/rrOld[v],  p_v = r_v + beta[v]·p_v
//
// fused into one coordinator handoff with one internal barrier. A converged
// (frozen) lane passes alpha[v] = 0: its x/r stay untouched numerically and
// its direction update degenerates to p = r + (rr/rr)·p, which is harmless
// because the solver stops reading frozen lanes' directions. A frozen lane's
// rrOld may be 0 (an exact zero residual): its beta is then 0, not NaN.
func MultiCGStep(pool *parallel.Pool, alpha, rrOld []float64, p, ap, x, r []float64, nv int, rrNew []float64) {
	BindStep(pool, nil, p, ap, x, r, nv)(alpha, rrOld, rrNew, rrNew)
}

// BindStep returns the CG step at nv lanes bound to its vectors, as
// BindMultiDots does for MultiDots: MultiCGStep, with Jacobi preconditioning
// folded in when d (the inverse diagonal) is non-nil, at one lane only — the
// update also sums the partials of rᵀz for z = d∘r, and the direction sets
// β = rzNew/rzOld and p = z + β·p, recomputing z rather than storing it. Per
// lane the step reads alpha and rzOld and fills rz and rr; with d nil, z is r
// and both are rᵀr.
func BindStep(pool *parallel.Pool, d, p, ap, x, r []float64, nv int) func(alpha, rzOld, rz, rr []float64) {
	m := newLanes(pool, nv, len(r)/nv, 3) // per thread: nv partials of each sum, then nv betas
	m.p, m.ap, m.x, m.r, m.d = p, ap, x, r, d
	l := label(nv, opCGStep, opMultiCGStep).bind(
		m.jacobi(cell(nv, m.update1T, m.updateT, m.update2T, m.update4T, m.update8T), m.jacobiUpdate1T),
		m.jacobi(cell(nv, m.direction1T, m.directionT, m.direction2T, m.direction4T, m.direction8T), m.jacobiDirection1T),
	)
	return func(alpha, rzOld, rz, rr []float64) {
		m.alpha, m.rzOld, m.rzNew, m.rrNew = alpha, rzOld, rz, rr
		pool.RunPhaseList(l)
	}
}
