package autotune

import (
	"repro/internal/color"
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

// colored returns the conflict-free colored schedule at p threads,
// memoized per thread count. Like symbolic, it is a purely symbolic scan of
// the unreordered structure; reordered colored variants are priced with the
// same schedule. Its colors are two in either order whenever more than one
// block survives, but RCM changes how many blocks survive, and so how many
// threads the phases keep busy; the micro-trials make the final call. The
// model stage's colored guard reads the block count.
func (t *tuner) colored(p int) *color.Schedule {
	sc, ok := t.colorMemo[p]
	if !ok {
		s := t.pr.S
		sc = color.Build(s.N, s.RowPtr, s.ColIdx, p, color.Options{})
		t.colorMemo[p] = sc
	}
	return sc
}

// modelCost builds the roofline account of one candidate: the format's
// estimate plus the x-access span. For reordered variants the span is
// assumed to shrink into the per-thread cache (the §V-D effect RCM exists
// for); the permutation is paid once per solve, not per product, so the
// product is priced alone, as the trials time it.
func (t *tuner) modelCost(f format.ID, p int, reordered bool) perfmodel.SpMVCost {
	c := f.Desc().Estimate(&t.shape, p)
	c.XSpanBytes = t.feat.XSpanBytes
	if cache := t.pl.XCachePerThreadBytes; reordered && c.XSpanBytes > cache {
		c.XSpanBytes = cache
	}
	return c
}
