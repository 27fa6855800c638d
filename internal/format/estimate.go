package format

import (
	"repro/internal/core"
	"repro/internal/perfmodel"
)

// The model-stage estimates price a format before anything is built. CSR and
// the SSS methods are priced exactly (their working sets follow the paper's
// equations from the structure features alone); CSX-Sym needs an encoded size
// that only exists after construction, so it gets a deliberately optimistic
// estimate — an optimistic estimate can only cost an extra micro-trial, while
// a pessimistic one would prune the true winner without ever timing it.

// csxCompressionEstimate is the assumed CSX-Sym size relative to SSS. The
// paper's Table I reports 58–68% total compression over CSR, which lands the
// encoded stream at roughly half the SSS bytes on delta-friendly matrices;
// 0.55 keeps CSX-Sym in the trial pool whenever compression could plausibly
// pay.
const csxCompressionEstimate = 0.55

// Shape is what an estimate may read: the matrix's structure statistics and
// the two symbolic scans that depend on the thread count, which the caller
// supplies (and memoizes).
type Shape struct {
	N, NNZLower, LogicalNNZ int64
	CSRBytes, SSSBytes      int64 // Eq. (1) and Eq. (2) sizes
	Kind                    core.SymKind

	// Conflict returns the conflict-index length and effective-region size
	// of the local-vector reduction at p threads.
	Conflict func(p int) (entries, region int64)
	// Colors returns the phase count of the colored schedule at p threads.
	Colors func(p int) int
}

// Estimate prices the unbuilt format at p threads. The caller owns what no
// format decides: the x-access span and reordering traffic. Only formats in
// the autotune plan space have an estimate.
func (d *Descriptor) Estimate(sh *Shape, p int) perfmodel.SpMVCost {
	c := perfmodel.SpMVCost{Name: d.Name, UsefulFlops: 2 * sh.LogicalNNZ}
	return d.estimate(d, c, sh, p)
}

func estimateCSR(_ *Descriptor, c perfmodel.SpMVCost, sh *Shape, _ int) perfmodel.SpMVCost {
	c.MultFlops = 2 * sh.LogicalNNZ
	c.MultBytes = sh.CSRBytes + 16*sh.N
	c.XAccesses = sh.LogicalNNZ
	return c
}

// estimateSym prices the SSS family and CSX-Sym (the SSS-indexed account over
// a compressed matrix stream).
func estimateSym(d *Descriptor, c perfmodel.SpMVCost, sh *Shape, p int) perfmodel.SpMVCost {
	n, pp := sh.N, int64(p)
	matBytes := sh.SSSBytes
	// SSSBytes assumes the symmetric layout; correct it for the kinds' actual
	// storage (Skew drops the dense diagonal, Structural streams a second
	// value array).
	switch sh.Kind {
	case core.Skew:
		matBytes -= 8 * n
	case core.Structural:
		matBytes += 8 * sh.NNZLower
	}
	method := core.Indexed
	if d.ID == CSXSym {
		matBytes = int64(csxCompressionEstimate * float64(sh.SSSBytes))
	} else {
		method = sssMethod[d.ID]
	}
	c.MultFlops = 2 * sh.LogicalNNZ
	c.XAccesses = 2*sh.NNZLower + n
	if p == 1 {
		// Serial symmetric kernel: no local vectors, no reduction.
		c.MultBytes = matBytes + 16*n
		return c
	}
	switch method {
	case core.Colored:
		// Conflict-free: zero reduction bytes; y moves twice (init write +
		// color-sweep read-modify-write) and each color beyond the multiply
		// phase's own barrier costs one more crossing.
		c.MultBytes = matBytes + 8*n + 24*n
		c.ExtraBarriers = int64(sh.Colors(p))
	case core.Naive:
		c.MultBytes = matBytes + 8*n + 8*pp*n
		c.RedBytes = 8*pp*n + 8*n
		c.RedFlops = pp * n
	case core.EffectiveRanges:
		_, region := sh.Conflict(p)
		c.MultBytes = matBytes + 16*n + 8*region
		c.RedBytes = 8*region + 8*n
		c.RedFlops = region
	case core.Indexed:
		e, _ := sh.Conflict(p)
		c.MultBytes = matBytes + 16*n + 8*e
		c.RedBytes = 24 * e
		c.RedFlops = e
	}
	return c
}
