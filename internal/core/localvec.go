package core

import (
	"sort"

	"repro/internal/parallel"
	"repro/internal/partition"
)

// DotStride spaces per-thread dot partials eight float64s (one cache line)
// apart so concurrent writers never share a line.
const DotStride = 8

// LocalVectors owns the per-thread local output vectors of a multithreaded
// symmetric SpM×V and performs the reduction phase under any of the three
// methods. It is shared by the SSS kernel (this package) and the CSX-Sym
// kernel (internal/csx): both produce identical conflict patterns, so the
// reduction machinery — including the paper's local-vectors index — lives
// here once.
//
// Layout: Vecs[t] is thread t's local vector; full length N for Naive,
// length Part.Start[t] (the effective range) for the other methods (thread 0
// then has an empty local vector). The reduction re-zeroes every element it
// consumes, so the multiply phase may assume all-zero locals on entry.
//
// The reduction is exposed as labelled phases (ReducePhases) a kernel appends
// to its multiply phase, so multiply→reduce is one list and one coordinator
// handoff.
type LocalVectors struct {
	N      int
	Method ReductionMethod
	Part   *partition.RowPartition
	Vecs   [][]float64

	p       int
	redPart *partition.RowPartition // uniform row split for naive/effective

	// Indexed only. index is the canonical conflict index, sorted by
	// (Idx, Vid); redSplit are per-worker boundaries into it, aligned so no
	// Idx value is shared between workers. redEntries is the same entry set
	// in reduction order: within each worker's slice, regrouped by
	// (Vid, Idx) so the reduction streams each local vector sequentially
	// instead of hopping between Vecs[Vid] per entry. Per output element the
	// contributions still arrive in ascending Vid order, so the float sums
	// are bitwise identical to a walk of the (Idx, Vid)-sorted index.
	index      []IndexEntry
	redSplit   []int32
	redEntries []IndexEntry
}

// NewLocalVectors allocates local vectors for partition part under method.
// For the Indexed method, touched[t] must list the distinct columns
// c < part.Start[t] that thread t's multiply phase writes, in ascending
// order; it is ignored otherwise (may be nil).
func NewLocalVectors(n int, part *partition.RowPartition, method ReductionMethod, touched [][]int32) *LocalVectors {
	p := part.P()
	lv := &LocalVectors{
		N:       n,
		Method:  method,
		Part:    part,
		Vecs:    make([][]float64, p),
		p:       p,
		redPart: partition.Uniform(n, p),
	}
	for t := 0; t < p; t++ {
		switch method {
		case Naive:
			lv.Vecs[t] = make([]float64, n)
		default:
			lv.Vecs[t] = make([]float64, part.Start[t])
		}
	}
	if method == Indexed {
		total := 0
		for _, cols := range touched {
			total += len(cols)
		}
		lv.index = make([]IndexEntry, 0, total)
		for t, cols := range touched {
			for _, c := range cols {
				lv.index = append(lv.index, IndexEntry{Vid: int32(t), Idx: c})
			}
		}
		sort.Slice(lv.index, func(a, b int) bool {
			if lv.index[a].Idx != lv.index[b].Idx {
				return lv.index[a].Idx < lv.index[b].Idx
			}
			return lv.index[a].Vid < lv.index[b].Vid
		})
		lv.redSplit = splitIndex(lv.index, p)
		lv.redEntries = groupByVid(lv.index, lv.redSplit)
	}
	return lv
}

// groupByVid reorders each worker slice of the (Idx, Vid)-sorted index into
// (Vid, Idx) order, producing per-worker per-Vid runs: the reduction then
// reads every Vecs[Vid] as an ascending sequential stream.
func groupByVid(index []IndexEntry, split []int32) []IndexEntry {
	out := make([]IndexEntry, len(index))
	copy(out, index)
	for w := 0; w+1 < len(split); w++ {
		s := out[split[w]:split[w+1]]
		sort.Slice(s, func(a, b int) bool {
			if s[a].Vid != s[b].Vid {
				return s[a].Vid < s[b].Vid
			}
			return s[a].Idx < s[b].Idx
		})
	}
	return out
}

// ReducePhases returns the labelled reduction of the operation whose
// operands sit in the slots *x and *y when the phases run — the caller sets
// the slots per call and builds the list once. For Naive, *y is fully
// overwritten; for the other methods the direct contributions already
// present in *y are kept and augmented; consumed local elements are re-zeroed.
//
// With dot non-nil the reduction is fused with the dot product xᵀy: after the
// phases have run, dot[tid*DotStride] holds thread tid's contribution over
// its reduction range. The caller combines the partials in ascending tid
// order; the per-thread ranges equal parallel.Chunk(N, p), so the combined
// sum is bitwise identical to vec.Dot over the finished y. Span names are
// prefix/reduce and prefix/dot.
func (lv *LocalVectors) ReducePhases(prefix string, x, y *[]float64, dot []float64) []parallel.Phase {
	var red func(tid int)
	switch {
	case lv.Method == Naive && dot != nil:
		red = func(tid int) { dot[tid*DotStride] = lv.reduceNaiveDotT(tid, *x, *y) }
	case lv.Method == Naive:
		red = func(tid int) { lv.reduceNaiveT(tid, *y) }
	case lv.Method == EffectiveRanges && dot != nil:
		red = func(tid int) { dot[tid*DotStride] = lv.reduceEffectiveDotT(tid, *x, *y) }
	case lv.Method == EffectiveRanges:
		red = func(tid int) { lv.reduceEffectiveT(tid, *y) }
	case lv.Method == Indexed:
		red = func(tid int) { lv.reduceIndexedT(tid, *y) }
	default:
		panic("core: no local-vector reduction for method " + lv.Method.String())
	}
	phases := []parallel.Phase{parallel.ReductionPhase(prefix+"/reduce", red)}
	if lv.Method == Indexed && dot != nil {
		// The indexed reduction touches only conflicted elements, so the dot
		// needs a separate full sweep of y once the reduction has finished.
		phases = append(phases, parallel.ComputePhase(prefix+"/dot",
			func(tid int) { dot[tid*DotStride] = lv.dotChunkT(tid, *x, *y) }))
	}
	return phases
}

// reduceNaiveT sums the p full-length local vectors into y over thread tid's
// uniform row chunk (Alg. 3 lines 12–15), re-zeroing the locals in the same
// pass.
func (lv *LocalVectors) reduceNaiveT(tid int, y []float64) {
	lo, hi := lv.redPart.Start[tid], lv.redPart.End[tid]
	for r := lo; r < hi; r++ {
		sum := 0.0
		for t := 0; t < lv.p; t++ {
			sum += lv.Vecs[t][r]
			lv.Vecs[t][r] = 0
		}
		y[r] = sum
	}
}

func (lv *LocalVectors) reduceNaiveDotT(tid int, x, y []float64) float64 {
	lo, hi := lv.redPart.Start[tid], lv.redPart.End[tid]
	dot := 0.0
	for r := lo; r < hi; r++ {
		sum := 0.0
		for t := 0; t < lv.p; t++ {
			sum += lv.Vecs[t][r]
			lv.Vecs[t][r] = 0
		}
		y[r] = sum
		dot += x[r] * sum
	}
	return dot
}

// reduceEffectiveT folds the effective regions into y over thread tid's
// uniform row chunk: row r receives contributions from every thread whose
// partition starts after r (those are a suffix, since partition starts are
// non-decreasing). Owners are likewise non-decreasing in r, so a single
// binary search at the chunk start seeds a cursor that advances across the
// chunk instead of re-searching per row.
func (lv *LocalVectors) reduceEffectiveT(tid int, y []float64) {
	lo, hi := lv.redPart.Start[tid], lv.redPart.End[tid]
	if lo >= hi {
		return
	}
	own := lv.Part.Owner(lo)
	for r := lo; r < hi; r++ {
		for r >= lv.Part.End[own] {
			own++
		}
		sum := y[r]
		for t := own + 1; t < lv.p; t++ {
			if int32(len(lv.Vecs[t])) > r {
				sum += lv.Vecs[t][r]
				lv.Vecs[t][r] = 0
			}
		}
		y[r] = sum
	}
}

func (lv *LocalVectors) reduceEffectiveDotT(tid int, x, y []float64) float64 {
	lo, hi := lv.redPart.Start[tid], lv.redPart.End[tid]
	if lo >= hi {
		return 0
	}
	own := lv.Part.Owner(lo)
	dot := 0.0
	for r := lo; r < hi; r++ {
		for r >= lv.Part.End[own] {
			own++
		}
		sum := y[r]
		for t := own + 1; t < lv.p; t++ {
			if int32(len(lv.Vecs[t])) > r {
				sum += lv.Vecs[t][r]
				lv.Vecs[t][r] = 0
			}
		}
		y[r] = sum
		dot += x[r] * sum
	}
	return dot
}

// reduceIndexedT walks worker tid's slice of the reduction-ordered conflict
// index, adding exactly the touched local elements into y. Entries are
// grouped into per-Vid runs, so each run streams one local vector
// sequentially; worker boundaries never split an Idx value, so each output
// element is written by a single worker.
func (lv *LocalVectors) reduceIndexedT(tid int, y []float64) {
	// The worker's entries are cut out of lv once, so the walk below indexes
	// them unchecked and loads each entry once.
	entries := lv.redEntries[lv.redSplit[tid]:lv.redSplit[tid+1]]
	for e := 0; e < len(entries); {
		vid := entries[e].Vid
		local := lv.Vecs[vid]
		yv := y[:len(local)] // one check serves both vectors
		for ; e < len(entries) && entries[e].Vid == vid; e++ {
			idx := entries[e].Idx
			yv[idx] += local[idx]
			local[idx] = 0
		}
	}
}

// dotChunkT computes the xᵀy partial over thread tid's uniform row chunk.
func (lv *LocalVectors) dotChunkT(tid int, x, y []float64) float64 {
	lo, hi := lv.redPart.Start[tid], lv.redPart.End[tid]
	sum := 0.0
	for r := lo; r < hi; r++ {
		sum += x[r] * y[r]
	}
	return sum
}

// IndexLen reports the number of conflict-index entries (touched
// local-vector elements); zero unless Method is Indexed.
func (lv *LocalVectors) IndexLen() int { return len(lv.index) }

// Index exposes the sorted conflict index (read-only; do not mutate).
func (lv *LocalVectors) Index() []IndexEntry { return lv.index }

// EffectiveRegionSize reports Σ_t Part.Start[t], the summed length of all
// effective regions — the denominator of the Fig. 4 density.
func (lv *LocalVectors) EffectiveRegionSize() int64 {
	var sum int64
	for t := 0; t < lv.p; t++ {
		sum += int64(lv.Part.Start[t])
	}
	return sum
}

// EffectiveDensity reports the fraction of effective-region elements the
// multiply phase actually writes (Fig. 4); zero when there are no effective
// regions (p == 1) or the method is not Indexed.
func (lv *LocalVectors) EffectiveDensity() float64 {
	size := lv.EffectiveRegionSize()
	if size == 0 {
		return 0
	}
	return float64(len(lv.index)) / float64(size)
}
