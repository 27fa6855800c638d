// Multi-vector (interleaved-layout) kernels for the block-CG solver: nv
// right-hand sides are stored lane-interleaved — component v of row i sits at
// x[i*nv+v] — matching the SpMM kernels, so the solver never transposes
// between the matrix and vector operations.
package vec

import "repro/internal/parallel"

// Interleave packs nv column vectors cols[v][i] into dst[i*nv+v].
func Interleave(dst []float64, cols [][]float64) {
	nv := len(cols)
	for v, c := range cols {
		for i, ci := range c {
			dst[i*nv+v] = ci
		}
	}
}

// Deinterleave unpacks src[i*nv+v] into nv column vectors cols[v][i].
func Deinterleave(cols [][]float64, src []float64) {
	nv := len(cols)
	for v, c := range cols {
		for i := range c {
			c[i] = src[i*nv+v]
		}
	}
}

// MultiDots computes the nv per-lane dot products out[v] = Σ_i a[i*nv+v]·b[i*nv+v]
// in parallel. Partials are combined serially in thread order, so each lane's
// result is bitwise identical to the single-vector Dot over that lane.
func MultiDots(pool *parallel.Pool, a, b []float64, nv int, out []float64) {
	BindMultiDots(pool, a, b, nv)(out)
}

// BindMultiDots returns MultiDots bound to its vectors (see BindDot).
func BindMultiDots(pool *parallel.Pool, a, b []float64, nv int) func(out []float64) {
	np := pool.Size()
	partial := make([]float64, np*nv+np*pad) // nv lanes per thread, padded apart
	stride := nv + pad
	n := len(a) / nv
	l := opMultiDots.bind(func(tid int) {
		lo, hi := parallel.Chunk(n, np, tid)
		sums := partial[tid*stride : tid*stride+nv]
		clear(sums)
		for i := lo; i < hi; i++ {
			base := i * nv
			for v := 0; v < nv; v++ {
				sums[v] += a[base+v] * b[base+v]
			}
		}
	})
	return func(out []float64) {
		pool.RunPhaseList(l)
		clear(out[:nv])
		for t := 0; t < np; t++ {
			sums := partial[t*stride : t*stride+nv]
			for v := 0; v < nv; v++ {
				out[v] += sums[v]
			}
		}
	}
}

// MultiSubCopyDots is the nv-lane SubCopyDots: r = b − ap, p = r, filling
// bb[v] = Σ b²-lane-v and rr[v] = Σ r²-lane-v, in one coordinator handoff.
func MultiSubCopyDots(pool *parallel.Pool, r, p, b, ap []float64, nv int, bb, rr []float64) {
	np := pool.Size()
	stride := 2*nv + pad
	partial := make([]float64, np*stride)
	n := len(b) / nv
	opMultiSubCopyDots.chunked(pool, n, func(tid, lo, hi int) {
		sb := partial[tid*stride : tid*stride+nv]
		sr := partial[tid*stride+nv : tid*stride+2*nv]
		for i := lo; i < hi; i++ {
			base := i * nv
			for v := 0; v < nv; v++ {
				bi := b[base+v]
				ri := bi - ap[base+v]
				r[base+v] = ri
				p[base+v] = ri
				sb[v] += bi * bi
				sr[v] += ri * ri
			}
		}
	})
	for v := 0; v < nv; v++ {
		bb[v], rr[v] = 0, 0
	}
	for t := 0; t < np; t++ {
		sb := partial[t*stride : t*stride+nv]
		sr := partial[t*stride+nv : t*stride+2*nv]
		for v := 0; v < nv; v++ {
			bb[v] += sb[v]
			rr[v] += sr[v]
		}
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
// because the solver stops reading frozen lanes' directions. rrOld entries of
// frozen lanes must stay nonzero (they hold the last live value).
func MultiCGStep(pool *parallel.Pool, alpha, rrOld []float64, p, ap, x, r []float64, nv int, rrNew []float64) {
	BindMultiCGStep(pool, p, ap, x, r, nv)(alpha, rrOld, rrNew)
}

// BindMultiCGStep returns MultiCGStep bound to its vectors (see BindDot).
func BindMultiCGStep(pool *parallel.Pool, p, ap, x, r []float64, nv int) func(alpha, rrOld, rrNew []float64) {
	np := pool.Size()
	stride := 2*nv + pad // per thread: nv partial sums, then its nv betas
	partial := make([]float64, np*stride)
	var alpha, rrOld, rrNew []float64
	n := len(r) / nv
	l := opMultiCGStep.bind(
		func(tid int) {
			lo, hi := parallel.Chunk(n, np, tid)
			sums := partial[tid*stride : tid*stride+nv]
			clear(sums)
			for i := lo; i < hi; i++ {
				base := i * nv
				for v := 0; v < nv; v++ {
					x[base+v] += alpha[v] * p[base+v]
					ri := r[base+v] - alpha[v]*ap[base+v]
					r[base+v] = ri
					sums[v] += ri * ri
				}
			}
		},
		func(tid int) {
			beta := partial[tid*stride+nv : tid*stride+2*nv]
			for v := 0; v < nv; v++ {
				total := 0.0
				for t := 0; t < np; t++ {
					total += partial[t*stride+v]
				}
				beta[v] = total / rrOld[v]
				if rrOld[v] == 0 {
					// A lane frozen at an exact zero residual: 0/0 would
					// poison p with NaN, and 0·NaN would then poison x on
					// the next step. Its direction is never read again, so
					// any finite beta does.
					beta[v] = 0
				}
				if tid == 0 {
					rrNew[v] = total
				}
			}
			lo, hi := parallel.Chunk(n, np, tid)
			for i := lo; i < hi; i++ {
				base := i * nv
				for v := 0; v < nv; v++ {
					p[base+v] = r[base+v] + beta[v]*p[base+v]
				}
			}
		},
	)
	return func(a, rrO, rrN []float64) {
		alpha, rrOld, rrNew = a, rrO, rrN
		pool.RunPhaseList(l)
	}
}
