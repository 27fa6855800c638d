package autotune

import (
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/perfmodel"
)

// The model stage prices every (format, threads) candidate with the
// perfmodel roofline account before anything is built. Each format's own
// estimate lives in its descriptor (internal/format); this file supplies the
// matrix scans those estimates read and the adjustments no format decides.

// symbolic returns the conflict-index length and effective-region size of
// the symmetric reduction at p threads, memoized per thread count — the one
// model input that needs a (cheap, symbolic) matrix scan per candidate p.
func (t *tuner) symbolic(p int) (entries, region int64) {
	if v, ok := t.symStats[p]; ok {
		return v[0], v[1]
	}
	entries, region, _ = core.ConflictIndexDensity(t.pr.S, p)
	t.symStats[p] = [2]int64{entries, region}
	return entries, region
}

// modelCost builds the roofline account of one candidate: the format's
// estimate plus the x-access span.
func (t *tuner) modelCost(f format.ID, p int) perfmodel.SpMVCost {
	c := f.Desc().Estimate(&t.shape, p)
	c.XSpanBytes = t.feat.XSpanBytes
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
