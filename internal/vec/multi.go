// Multi-vector (interleaved-layout) kernels for the block-CG solver: nv
// right-hand sides are stored lane-interleaved — component v of row i sits at
// x[i*nv+v] — matching the SpMM kernels, so the solver never transposes
// between the matrix and vector operations.
package vec

import "repro/internal/parallel"

// lanes is one multi-lane operation bound to its vectors, its per-thread
// partial sums and its per-call α and β inputs. Its phase bodies are the
// cells of multi_gen.go, generated with the kernel's multiply bodies by
// internal/core/gen: at nv ∈ {2, 4, 8} every lane's sum, α and β is a
// register, and the partials are written once per chunk.
type lanes struct {
	nv, n, np           int // lanes, rows, threads
	stride              int // a thread's block of partials: nv per sum, padded apart
	partial             []float64
	a, b, ap, p, r, x   []float64
	alpha, rrOld, rrNew []float64
}

func newLanes(pool *parallel.Pool, nv, rows, sums int) *lanes {
	m := &lanes{nv: nv, n: rows, np: pool.Size(), stride: sums*nv + pad}
	m.partial = make([]float64, m.np*m.stride)
	return m
}

// cell picks an operation's body by lane width, as core's matMultEffective
// does: the register-blocked cell for nv ∈ {2, 4, 8}, the nv cell otherwise.
func (m *lanes) cell(anyNV, w2, w4, w8 func(int)) func(int) {
	switch m.nv {
	case 2:
		return w2
	case 4:
		return w4
	case 8:
		return w8
	}
	return anyNV
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

// betas is the direction phase's prologue: lane v's rᵀr over every thread's
// partials, combined in thread order into this thread's slots, handed out as
// rrNew by thread 0, and returned as β = rrNew/rrOld. A lane frozen at an
// exact zero residual has rrOld = 0: 0/0 would poison p with NaN, and 0·NaN
// would then poison x on the next step. Its direction is never read again, so
// any finite β does.
func (m *lanes) betas(tid int) []float64 {
	b := m.partial[tid*m.stride+m.nv:][:m.nv]
	m.total(b, 0)
	if tid == 0 {
		copy(m.rrNew, b)
	}
	for v, old := range m.rrOld[:m.nv] {
		b[v] /= old
		if old == 0 {
			b[v] = 0
		}
	}
	return b
}

// MultiDots computes the nv per-lane dot products out[v] = Σ_i a[i*nv+v]·b[i*nv+v]
// in parallel. Partials are combined serially in thread order, so each lane's
// result is bitwise identical to the single-vector Dot over that lane.
func MultiDots(pool *parallel.Pool, a, b []float64, nv int, out []float64) {
	BindMultiDots(pool, a, b, nv)(out)
}

// BindMultiDots returns MultiDots bound to its vectors (see BindDot).
func BindMultiDots(pool *parallel.Pool, a, b []float64, nv int) func(out []float64) {
	m := newLanes(pool, nv, len(a)/nv, 1)
	m.a, m.b = a, b
	l := opMultiDots.bind(m.cell(m.dotsT, m.dots2T, m.dots4T, m.dots8T))
	return func(out []float64) {
		pool.RunPhaseList(l)
		m.total(out, 0)
	}
}

// MultiSubCopyDots is the nv-lane SubCopyDots: r = b − ap, p = r, filling
// bb[v] = Σ b²-lane-v and rr[v] = Σ r²-lane-v, in one coordinator handoff.
func MultiSubCopyDots(pool *parallel.Pool, r, p, b, ap []float64, nv int, bb, rr []float64) {
	m := newLanes(pool, nv, len(b)/nv, 2)
	m.r, m.p, m.b, m.ap = r, p, b, ap
	pool.RunPhaseList(opMultiSubCopyDots.bind(m.cell(m.subCopyDotsT, m.subCopyDots2T, m.subCopyDots4T, m.subCopyDots8T)))
	m.total(bb, 0)
	m.total(rr, 1)
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
	BindMultiCGStep(pool, p, ap, x, r, nv)(alpha, rrOld, rrNew)
}

// BindMultiCGStep returns MultiCGStep bound to its vectors (see BindDot).
func BindMultiCGStep(pool *parallel.Pool, p, ap, x, r []float64, nv int) func(alpha, rrOld, rrNew []float64) {
	m := newLanes(pool, nv, len(r)/nv, 2) // per thread: nv partial sums, then nv betas
	m.p, m.ap, m.x, m.r = p, ap, x, r
	l := opMultiCGStep.bind(
		m.cell(m.updateT, m.update2T, m.update4T, m.update8T),
		m.cell(m.directionT, m.direction2T, m.direction4T, m.direction8T),
	)
	return func(alpha, rrOld, rrNew []float64) {
		m.alpha, m.rrOld, m.rrNew = alpha, rrOld, rrNew
		pool.RunPhaseList(l)
	}
}
