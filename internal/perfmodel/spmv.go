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
	// priced phase. The colored (conflict-free) schedule runs 1 + colors
	// phases with no reduction at all, so it carries colors extra barriers
	// on top of the multiply phase's own — the traffic-free cost the model
	// weighs against eliminating RedBytes entirely.
	ExtraBarriers int64

	// Busy, when set, is how many threads the multiply phase keeps busy on
	// average: the colored schedule's phases run only as wide as their
	// blocks allow, so a schedule merged down to a few blocks runs nearly
	// serially whatever p is. Zero means all p.
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

// xProfile computes the irregular-access span statistic of a CSR-layout
// structure: 8·(2·avg|r−c| + 1) bytes, capped at the full vector.
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
	nnz := int64(rowPtr[len(rowPtr)-1])
	if nnz == 0 {
		return 8
	}
	span := int64(8 * (2*sum/float64(nnz) + 1))
	if cap := int64(8 * n); span > cap {
		span = cap
	}
	return span
}

// CSRCost accounts the baseline CSR kernel: the matrix stream (Eq. 1), x
// read once, y written once; no reduction phase.
func CSRCost(a *csr.Matrix) SpMVCost {
	nnz := int64(a.NNZ())
	n := int64(a.Rows)
	return SpMVCost{
		Name:        "CSR",
		MultFlops:   2 * nnz,
		MultBytes:   a.Bytes() + 8*n /* x */ + 8*n, /* y */
		MatrixBytes: a.Bytes(),
		UsefulFlops: 2 * nnz,
		XAccesses:   nnz,
		XSpanBytes:  xProfile(a.RowPtr, a.ColIdx, a.Cols),
	}
}

// CSXCost accounts the unsymmetric CSX kernel: the compressed stream
// replaces the CSR arrays; vector traffic and x locality are those of the
// same operator (orig supplies the access profile).
func CSXCost(mx *csx.Matrix, orig *csr.Matrix) SpMVCost {
	nnz := int64(mx.NNZ())
	n := int64(mx.Rows)
	return SpMVCost{
		Name:        "CSX",
		MultFlops:   2 * nnz,
		MultBytes:   mx.Bytes() + 8*n + 8*n,
		MatrixBytes: mx.Bytes(),
		UsefulFlops: 2 * nnz,
		XAccesses:   nnz,
		XSpanBytes:  xProfile(orig.RowPtr, orig.ColIdx, orig.Cols),
	}
}

// symXProfile computes the x-access statistics of a symmetric kernel over
// the strict lower triangle: every stored element reads both x[c] (span
// |r−c|) and x[r] (local), plus the diagonal pass.
func symXProfile(s *core.SSS) (accesses, spanBytes int64) {
	var sum float64
	for r := 0; r+1 < len(s.RowPtr); r++ {
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			d := r - int(s.ColIdx[j])
			sum += float64(d)
		}
	}
	nnz := int64(len(s.Val))
	accesses = 2*nnz + int64(s.N)
	if nnz == 0 {
		return accesses, 8
	}
	span := int64(8 * (2*sum/float64(nnz) + 1))
	if cap := int64(8 * s.N); span > cap {
		span = cap
	}
	return accesses, span
}

// SSSCost accounts the symmetric SSS kernel under its configured reduction
// method, straight from the kernel's exact Traffic counters.
func SSSCost(k *core.Kernel) SpMVCost {
	t := k.Traffic()
	acc, span := symXProfile(k.S)
	return SpMVCost{
		Name:          "SSS-" + k.Method.String(),
		MultFlops:     t.MultFlops,
		MultBytes:     t.MultMatrixBytes + t.MultVectorBytes,
		MatrixBytes:   t.MultMatrixBytes,
		RedFlops:      t.RedFlops,
		RedBytes:      t.RedBytes,
		UsefulFlops:   t.MultFlops,
		XAccesses:     acc,
		XSpanBytes:    span,
		ExtraBarriers: t.ExtraBarriers,
		Busy:          t.Busy,
	}
}

// CSXSymCost accounts the CSX-Sym kernel: the compressed lower-triangle
// stream plus dvalues in the multiply phase, and the same local-vectors
// reduction traffic as the SSS kernel with the same method (the reduction is
// shared machinery — core.LocalVectors). orig supplies the x profile.
func CSXSymCost(sm *csx.SymMatrix, orig *core.SSS) SpMVCost {
	n := int64(sm.N)
	nnzLower := int64(sm.NNZLower())
	flops := 2*n + 4*nnzLower
	p := int64(sm.Part.P())
	acc, span := symXProfile(orig)

	c := SpMVCost{
		Name:        "CSX-Sym-" + sm.Method.String(),
		MultFlops:   flops,
		UsefulFlops: flops,
		MatrixBytes: sm.Bytes(),
		XAccesses:   acc,
		XSpanBytes:  span,
	}
	xBytes := 8 * n
	yBytes := 8 * n
	switch sm.Method {
	case core.Naive:
		c.MultBytes = sm.Bytes() + xBytes + 8*p*n
		c.RedBytes = 8*p*n + yBytes
		c.RedFlops = p * n
	case core.EffectiveRanges:
		eff := sm.LV.EffectiveRegionSize()
		c.MultBytes = sm.Bytes() + xBytes + yBytes + 8*eff
		c.RedBytes = 8*eff + yBytes
		c.RedFlops = eff
	case core.Indexed:
		e := int64(sm.LV.IndexLen())
		c.MultBytes = sm.Bytes() + xBytes + yBytes + 8*e
		c.RedBytes = 8*e + 8*e + 8*e
		c.RedFlops = e
	}
	return c
}

// SerialSSSCost accounts the serial symmetric kernel (Alg. 2) — the
// baseline of the Fig. 5 overhead ratios and the unit of the §V-E
// preprocessing cost.
func SerialSSSCost(s *core.SSS) SpMVCost {
	t := core.SerialTraffic(s)
	acc, span := symXProfile(s)
	return SpMVCost{
		Name:        "SSS-serial",
		MultFlops:   t.MultFlops,
		MultBytes:   t.MultMatrixBytes + t.MultVectorBytes,
		MatrixBytes: t.MultMatrixBytes,
		UsefulFlops: t.MultFlops,
		XAccesses:   acc,
		XSpanBytes:  span,
	}
}
