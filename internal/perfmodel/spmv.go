package perfmodel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/csx"
)

// SpMVCost is the per-iteration flop/byte account of one SpM×V kernel
// configuration, split into the multiplication and reduction phases. All
// byte counts come from the real encoded data structures.
//
// The input-vector locality of the kernel is carried separately
// (XAccesses/XSpanBytes): x accesses that fall outside the platform's
// per-thread cache span are charged extra traffic, the cache-miss effect
// that matrix reordering removes.
type SpMVCost struct {
	Name        string
	MultFlops   int64
	MultBytes   int64
	RedFlops    int64
	RedBytes    int64
	UsefulFlops int64 // 2·NNZ_logical, the numerator of the Gflop/s metric

	// MatrixBytes is the matrix-stream portion of MultBytes — the part a
	// multi-RHS (SpMM) sweep does NOT scale with the vector count. The
	// remainder (MultBytes − MatrixBytes) is vector traffic, which does.
	MatrixBytes int64

	// XAccesses is the number of irregular input-vector reads per
	// operation; XSpanBytes the average span of those accesses,
	// 8·(2·avg|r−c| + 1) capped at the vector size.
	XAccesses  int64
	XSpanBytes int64

	// ExtraBarriers counts barrier crossings beyond the one ending each
	// priced phase. The colored (conflict-free) schedule runs its deferred
	// elements in a second phase with no reduction at all, so it carries one
	// extra barrier on top of the multiply phase's own — the traffic-free
	// cost the model weighs against eliminating RedBytes entirely.
	ExtraBarriers int64

	// Busy, when set, is how many threads the multiply phase keeps busy on
	// average: the colored schedule's phases run only as wide as its ranges
	// allow, so a schedule merged down to one or two ranges, or deferring a
	// whole range, runs nearly serially whatever p is. Zero means all p.
	Busy float64
}

// xExtraBytes is the modeled extra traffic from x accesses missing the
// per-thread cache: one additional 8-byte word per missing access (partial
// line reuse keeps the cost below a full 64-byte line).
func (c SpMVCost) xExtraBytes(pl Platform) int64 {
	m := pl.XMissFraction(c.XSpanBytes)
	return int64(m * 8 * float64(c.XAccesses))
}

// Seconds predicts the kernel time at p threads on pl: the multiply phase
// plus (when present) the reduction phase, each ending in a barrier.
func (c SpMVCost) Seconds(pl Platform, p int) float64 {
	t := c.MultSeconds(pl, p)
	t += c.RedSeconds(pl, p)
	t += float64(c.ExtraBarriers) * pl.BarrierSeconds(p)
	return t
}

// MultSeconds predicts the multiplication phase alone (Fig. 10).
func (c SpMVCost) MultSeconds(pl Platform, p int) float64 {
	if c.Busy > 0 && c.Busy < float64(p) {
		p = max(1, int(c.Busy+0.5))
	}
	return pl.PhaseSeconds(p, c.MultFlops, c.MultBytes+c.xExtraBytes(pl))
}

// RedSeconds predicts the reduction phase alone.
func (c SpMVCost) RedSeconds(pl Platform, p int) float64 {
	if c.RedBytes == 0 && c.RedFlops == 0 {
		return 0
	}
	return pl.PhaseSeconds(p, c.RedFlops, c.RedBytes)
}

// SerialSeconds predicts the single-thread kernel (no barriers, both phases
// merged — a serial symmetric kernel has no reduction at all).
func (c SpMVCost) SerialSeconds(pl Platform) float64 {
	return pl.SerialSeconds(c.MultFlops, c.MultBytes+c.xExtraBytes(pl))
}

// Gflops reports the paper's performance metric at p threads.
func (c SpMVCost) Gflops(pl Platform, p int) float64 {
	return Gflops(c.UsefulFlops, c.Seconds(pl, p))
}

// SpMM scales the cost to a multi-RHS sweep over nv interleaved vectors:
// flops and vector traffic scale by nv while the matrix stream — the
// dominant term of every sparse kernel here — is paid once. This falling
// matrix-bytes-per-flop ratio is the entire case for the blocked SpMM path.
// Each irregular x probe stays one probe but now drags an nv-wide lane
// group, so the span statistic scales instead of the access count.
func (c SpMVCost) SpMM(nv int) SpMVCost {
	if nv <= 1 {
		return c
	}
	m := int64(nv)
	out := c
	out.Name = fmt.Sprintf("%s-spmm%d", c.Name, nv)
	out.MultFlops = c.MultFlops * m
	out.MultBytes = c.MatrixBytes + (c.MultBytes-c.MatrixBytes)*m
	out.RedFlops = c.RedFlops * m
	out.RedBytes = c.RedBytes * m
	out.UsefulFlops = c.UsefulFlops * m
	out.XSpanBytes = c.XSpanBytes * m
	return out
}

// XSpan is the span statistic of irregular x accesses whose mean distance
// from the diagonal is avg: 8·(2·avg + 1) bytes, capped at the n-element
// vector and never below one element.
func XSpan(avg float64, n int) int64 {
	return max(8, min(int64(8*(2*avg+1)), int64(8*n)))
}

// xProfile computes the irregular-access span statistic of a CSR-layout
// structure over its stored elements.
func xProfile(rowPtr, colIdx []int32, n int) (spanBytes int64) {
	var sum float64
	for r := 0; r+1 < len(rowPtr); r++ {
		for j := rowPtr[r]; j < rowPtr[r+1]; j++ {
			d := int(colIdx[j]) - r
			if d < 0 {
				d = -d
			}
			sum += float64(d)
		}
	}
	if nnz := rowPtr[len(rowPtr)-1]; nnz > 0 {
		return XSpan(sum/float64(nnz), n)
	}
	return 8
}

// cost is the one conversion of an exact traffic account into the model's:
// MultBytes is both multiply-phase streams, the matrix stream alone is what an
// SpMM sweep pays once, and the useful flops are the multiply's.
func cost(name string, t core.Traffic, xAccesses, span int64) SpMVCost {
	return SpMVCost{
		Name:          name,
		MultFlops:     t.MultFlops,
		MultBytes:     t.MultMatrixBytes + t.MultVectorBytes,
		MatrixBytes:   t.MultMatrixBytes,
		RedFlops:      t.RedFlops,
		RedBytes:      t.RedBytes,
		UsefulFlops:   t.MultFlops,
		XAccesses:     xAccesses,
		XSpanBytes:    span,
		ExtraBarriers: t.ExtraBarriers,
		Busy:          t.Busy,
	}
}

// GeneralCost accounts an unsymmetric kernel (CSR, CSX) of nnz stored
// elements on n rows: the matrix stream (Eq. 1 for CSR), x read once per
// element, y written once; no reduction phase.
func GeneralCost(name string, n, nnz, matrixBytes, span int64) SpMVCost {
	return cost(name, core.Traffic{MultMatrixBytes: matrixBytes, MultVectorBytes: 16 * n, MultFlops: 2 * nnz}, nnz, span)
}

// SymCost accounts a symmetric kernel from its core account over the stored
// elements st: every stored lower element reads x[c] (span |r−c|) and x[r],
// plus the diagonal pass.
func SymCost(name string, t core.Traffic, st core.Stored, span int64) SpMVCost {
	return cost(name, t, 2*st.Lower+st.N, span)
}

// CSRCost accounts the baseline CSR kernel.
func CSRCost(a *csr.Matrix) SpMVCost {
	return GeneralCost("CSR", int64(a.Rows), int64(a.NNZ()), a.Bytes(), xProfile(a.RowPtr, a.ColIdx, a.Cols))
}

// CSXCost accounts the unsymmetric CSX kernel: the compressed stream
// replaces the CSR arrays; x locality is that of the same operator (orig
// supplies the access profile).
func CSXCost(mx *csx.Matrix, orig *csr.Matrix) SpMVCost {
	return GeneralCost("CSX", int64(mx.Rows), int64(mx.NNZ()), mx.Bytes(), xProfile(orig.RowPtr, orig.ColIdx, orig.Cols))
}

// SSSCost accounts the symmetric SSS kernel under its configured reduction
// method, straight from the kernel's exact Traffic counters.
func SSSCost(k *core.Kernel) SpMVCost {
	s := k.S
	return SymCost("SSS-"+k.Method.String(), k.Traffic(), core.StoredOf(s), xProfile(s.RowPtr, s.ColIdx, s.N))
}

// CSXSymCost accounts the CSX-Sym kernel: the compressed lower-triangle
// stream plus dvalues in the multiply phase, and the same local-vectors
// reduction traffic as the SSS kernel with the same method (the reduction is
// shared machinery — core.LocalVectors). orig supplies the x profile.
func CSXSymCost(sm *csx.SymMatrix, orig *core.SSS) SpMVCost {
	n := int64(sm.N)
	st := core.Stored{N: n, Lower: int64(sm.NNZLower()), Diag: n}
	cf := core.Conflicts{IndexLen: int64(sm.LV.IndexLen()), Region: sm.LV.EffectiveRegionSize()}
	t := core.Account(sm.Method, sm.Part.P(), sm.Bytes(), st, cf)
	return SymCost("CSX-Sym-"+sm.Method.String(), t, st, xProfile(orig.RowPtr, orig.ColIdx, orig.N))
}
