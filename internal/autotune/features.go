// Package autotune selects the best SpM×V execution plan — storage format,
// reduction method, thread count, and optionally an RCM reorder — for a
// given matrix on the machine running the process.
//
// The paper's evaluation (§V) shows the winning configuration varies per
// matrix and per platform: SSS-indexed wins where the reduction dominates,
// CSX-Sym where bandwidth starves the multiply, and CSR at low thread
// counts. OSKI-style systems turn such a pile of kernels into a library by
// empirical autotuning: a model-guided pruning pass followed by timed
// micro-trials. This package implements that two-stage search:
//
//  1. Model stage — every (format, threads) candidate is priced with the
//     internal/perfmodel roofline account, fed by cheap structure features
//     (matrix.Stats plus the symbolic conflict-index analysis). Candidates
//     far off the modeled optimum are pruned without ever being built.
//  2. Trial stage — the survivors are built for real and timed with the
//     paper's vector-swapping protocol under successive halving: every
//     round doubles the trial length and keeps the faster half, so the
//     expensive long measurements are spent only on the close contenders.
//     Preprocessing cost (CSX-Sym encoding) is amortized into the score
//     over a fixed number of expected operations.
//
// Decisions are persisted in a versioned, checksummed on-disk cache keyed by
// a structure fingerprint of the matrix plus a machine signature, so repeat
// solves of the same system skip the search entirely (see cache.go).
package autotune

import (
	"repro/internal/matrix"
)

// Features are the cheap structural statistics the model stage prices
// candidates with. All fields derive from one O(nnz) scan (matrix.Stats);
// the per-thread-count conflict-index statistics are computed lazily by the
// tuner because they depend on the candidate thread count.
type Features struct {
	N          int
	NNZLower   int // stored entries of the lower triangle
	LogicalNNZ int // nonzeros of the full symmetric operator

	Bandwidth    int     // max |r−c|
	AvgBandwidth float64 // mean |r−c| — drives the x-locality model
	AvgRowNNZ    float64
	MaxRowNNZ    int

	CSRBytes int64 // Eq. (1) size of the full operator
	SSSBytes int64 // Eq. (2) size of the symmetric skyline form

	// XSpanBytes is the modeled span of the irregular input-vector accesses,
	// 8·(2·avg|r−c| + 1) capped at the vector size — the statistic
	// perfmodel charges cache-miss traffic for.
	XSpanBytes int64
}

// ExtractFeatures derives the model-stage features from precomputed stats.
func ExtractFeatures(st matrix.Stats) Features {
	f := Features{
		N:            st.Rows,
		NNZLower:     st.NNZ,
		LogicalNNZ:   st.LogicalNNZ,
		Bandwidth:    st.Bandwidth,
		AvgBandwidth: st.AvgBandwidth,
		AvgRowNNZ:    st.AvgRowNNZ,
		MaxRowNNZ:    st.MaxRowNNZ,
		CSRBytes:     st.CSRBytes,
		SSSBytes:     st.SSSBytes,
	}
	span := int64(8 * (2*st.AvgBandwidth + 1))
	if cap := int64(8 * st.Rows); span > cap {
		span = cap
	}
	if span < 8 {
		span = 8
	}
	f.XSpanBytes = span
	return f
}
