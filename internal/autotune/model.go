package autotune

import (
	"repro/internal/format"
	"repro/internal/perfmodel"
)

// The model stage prices every (format, threads) candidate with the
// perfmodel roofline account before anything is built. Each format's own
// estimate lives in its descriptor (internal/format); this file supplies the
// adjustments no format decides.

// modelCost builds the roofline account of one candidate: the format's
// estimate plus the x-access span.
func (t *tuner) modelCost(f format.ID, p int) perfmodel.SpMVCost {
	c := f.Desc().Estimate(t.shape, p)
	c.XSpanBytes = t.span
	return c
}

// reorderedCost is the account of a candidate's RCM variant: the span is assumed
// to shrink into the per-thread cache (the §V-D effect RCM exists for); the
// permutation is paid once per solve, not per product, so the product is
// priced alone, as the trials time it.
func (t *tuner) reorderedCost(c perfmodel.SpMVCost) perfmodel.SpMVCost {
	c.XSpanBytes = min(c.XSpanBytes, t.pl.XCachePerThreadBytes)
	return c
}
