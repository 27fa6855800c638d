package format

import (
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/perfmodel"
)

// The model-stage estimates price a format before anything is built, through
// the same account the built kernel reports (core.Account): the SSS methods
// exactly, from the SSS's own counts and the symbolic conflict scans; CSR from
// the expanded operator's size. CSX-Sym needs an encoded size that only
// exists after construction, so it gets a deliberately optimistic estimate —
// an optimistic estimate can only cost an extra micro-trial, while a
// pessimistic one would prune the true winner without ever timing it.

// csxCompressionEstimate is the assumed CSX-Sym size relative to SSS. The
// paper's Table I reports 58–68% total compression over CSR, which lands the
// encoded stream at roughly half the SSS bytes on delta-friendly matrices;
// 0.55 keeps CSX-Sym in the trial pool whenever compression could plausibly
// pay.
const csxCompressionEstimate = 0.55

// Shape is what an estimate reads: the SSS, what only the COO knows (which
// diagonal slots of the SSS's dense diagonal hold a nonzero of the expanded
// operator), and the symbolic conflict scans, memoized per method and thread
// count.
type Shape struct {
	S                    *core.SSS
	LogicalNNZ, CSRBytes int64 // the expanded operator's nonzeros and Eq. (1) size
	scans                map[[2]int]core.Conflicts
}

// NewShape returns the Shape of s, whose COO form has statistics st.
func NewShape(s *core.SSS, st matrix.Stats) *Shape {
	return &Shape{S: s, LogicalNNZ: int64(st.LogicalNNZ), CSRBytes: st.CSRBytes, scans: map[[2]int]core.Conflicts{}}
}

func (sh *Shape) conflicts(m core.ReductionMethod, p int) core.Conflicts {
	key := [2]int{int(m), p}
	cf, ok := sh.scans[key]
	if !ok {
		cf = core.ScanConflicts(sh.S, m, p)
		sh.scans[key] = cf
	}
	return cf
}

// Estimate prices the unbuilt format at p threads. The caller owns what no
// format decides: the x-access span. Only formats in the autotune plan space
// have an estimate.
func (d *Descriptor) Estimate(sh *Shape, p int) perfmodel.SpMVCost {
	c := d.estimate(d, sh, p)
	c.Name = d.Name
	return c
}

func estimateCSR(_ *Descriptor, sh *Shape, _ int) perfmodel.SpMVCost {
	return perfmodel.GeneralCost("", int64(sh.S.N), sh.LogicalNNZ, sh.CSRBytes, 0)
}

// estimateSym prices the SSS family and CSX-Sym (the SSS-indexed account over
// a compressed matrix stream).
func estimateSym(d *Descriptor, sh *Shape, p int) perfmodel.SpMVCost {
	st := core.StoredOf(sh.S)
	m, bytes := core.Indexed, int64(csxCompressionEstimate*float64(st.SSSBytes()))
	if d.ID != CSXSym {
		m, bytes = sssMethod[d.ID], st.SSSBytes()
	}
	return perfmodel.SymCost("", core.Account(m, p, bytes, st, sh.conflicts(m, p)), st, 0)
}
