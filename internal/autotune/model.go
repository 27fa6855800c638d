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

// colorCount returns the phase count of the conflict-free colored schedule
// at p threads. Like symbolic, it is a purely symbolic scan of the
// unreordered structure; reordered colored variants are priced with the same
// count, which is conservative (RCM can only shrink it) — the micro-trials
// make the final call.
func (t *tuner) colorCount(p int) int {
	c, _ := t.colorStats(p)
	return c
}

// colorStats returns the color and block counts of the conflict-free
// schedule at p threads, memoized per thread count. The block count is what
// the blow-up guard compares the colors against: colors near the block count
// mean the "parallel" phases are nearly empty.
func (t *tuner) colorStats(p int) (colors, blocks int) {
	if v, ok := t.colorMemo[p]; ok {
		return v[0], v[1]
	}
	s := t.pr.S
	sc := color.Build(s.N, s.RowPtr, s.ColIdx, p, color.Options{})
	t.colorMemo[p] = [2]int{sc.NumColors, sc.NumBlocks}
	return sc.NumColors, sc.NumBlocks
}

// modelCost builds the roofline account of one candidate: the format's
// estimate plus the x-access span. For reordered variants the span
// is assumed to shrink into the per-thread cache (the §V-D effect RCM exists
// for) and the two permutation copies around the kernel are charged as extra
// streamed traffic.
func (t *tuner) modelCost(f format.ID, p int, reordered bool) perfmodel.SpMVCost {
	c := f.Desc().Estimate(&t.shape, p)
	c.XSpanBytes = t.feat.XSpanBytes
	if reordered {
		if cache := t.pl.XCachePerThreadBytes; c.XSpanBytes > cache {
			c.XSpanBytes = cache
		}
		c.MultBytes += 4 * 8 * t.shape.N // read x, write x_p; read y_p, write y
	}
	return c
}
