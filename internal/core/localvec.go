package core

import (
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
// Layout: Vecs[t] is thread t's local vector, holding rows×lanes interleaved
// floats (row r, lane v at r·nv+v, as in MulMat's operands); rows is N for
// Naive and Part.Start[t] (the effective range) for the other methods, so
// thread 0 then has an empty local vector. The store is as wide as the widest
// operation that has run (Lanes): an nv-lane product uses the first rows·nv
// elements, and the one store, never more than the widest width's locals,
// serves every width. The reduction re-zeroes every element it consumes, so
// between operations every element is zero, whatever width last used it, and
// the multiply phase may assume all-zero locals on entry.
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
	lanes   int                     // the width Vecs has room for
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

// NewLocalVectors allocates single-lane local vectors for partition part
// under method. For the Indexed method, touched[t] must list the distinct
// columns c < part.Start[t] that thread t's multiply phase writes, in any
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
	lv.Lanes(1)
	if method == Indexed {
		lv.index = conflictIndex(touched, int(part.Start[p-1]))
		lv.redSplit = splitIndex(lv.index, p)
		lv.redEntries = groupByVid(lv.index, lv.redSplit)
	}
	return lv
}

// conflictIndex sorts the (thread, column) pairs of touched, all columns
// below bound, by (Idx, Vid) in one counting pass over Idx: the threads are
// dealt in ascending order, so each Idx's entries land in ascending Vid.
func conflictIndex(touched [][]int32, bound int) []IndexEntry {
	at := make([]int32, bound+1) // counts, then where each Idx's next entry goes
	for _, cols := range touched {
		for _, c := range cols {
			at[c+1]++
		}
	}
	for c := range bound {
		at[c+1] += at[c]
	}
	index := make([]IndexEntry, at[bound])
	for t, cols := range touched {
		for _, c := range cols {
			index[at[c]] = IndexEntry{Vid: int32(t), Idx: c}
			at[c]++
		}
	}
	return index
}

// Lanes makes room in every local vector for nv interleaved lanes. The store
// only grows: a narrower operation uses a prefix of it, so switching between
// widths allocates only the first time a wider one runs. Vecs are all zero
// between operations, so a grown store starts from fresh zeros.
func (lv *LocalVectors) Lanes(nv int) {
	if nv <= lv.lanes {
		return
	}
	for t := range lv.Vecs {
		rows := int(lv.Part.Start[t])
		if lv.Method == Naive {
			rows = lv.N
		}
		lv.Vecs[t] = make([]float64, rows*nv)
	}
	lv.lanes = nv
}

// groupByVid reorders each worker slice of the (Idx, Vid)-sorted index into
// (Vid, Idx) order, producing per-worker per-Vid runs: the reduction then
// reads every Vecs[Vid] as an ascending sequential stream. A stable counting
// pass on Vid keeps each Vid's entries in ascending Idx.
func groupByVid(index []IndexEntry, split []int32) []IndexEntry {
	out := make([]IndexEntry, len(index))
	at := make([]int32, len(split)) // Vids are the p workers
	for w := 0; w+1 < len(split); w++ {
		s := index[split[w]:split[w+1]]
		clear(at)
		for _, e := range s {
			at[e.Vid+1]++
		}
		at[0] = split[w]
		for v := range len(split) - 1 {
			at[v+1] += at[v]
		}
		for _, e := range s {
			out[at[e.Vid]] = e
			at[e.Vid]++
		}
	}
	return out
}

// ReducePhases returns the labelled reduction of an nv-lane operation whose
// operands sit in the slots *x and *y when the phases run — the caller sets
// the slots per call and builds the list once, after Lanes(nv). For Naive, *y
// is fully overwritten; for the other methods the direct contributions
// already present in *y are kept and augmented; consumed local elements are
// re-zeroed. Per lane, every method adds the same terms in the same order at
// every width, so each lane is bitwise the single-vector reduction.
//
// With dot non-nil (nv = 1 only) the reduction is fused with the dot product
// xᵀy: after the phases have run, dot[tid*DotStride] holds thread tid's
// contribution over its reduction range. The caller combines the partials in
// ascending tid order; the per-thread ranges equal parallel.Chunk(N, p), so
// the combined sum is bitwise identical to vec.Dot over the finished y. Span
// names are prefix/reduce and prefix/dot.
func (lv *LocalVectors) ReducePhases(prefix string, x, y *[]float64, dot []float64, nv int) []parallel.Phase {
	if dot != nil && nv != 1 {
		panic("core: a fused dot reduces one lane")
	}
	var red func(tid int)
	switch {
	case lv.Method == Naive && dot != nil:
		red = func(tid int) { dot[tid*DotStride] = lv.reduceNaiveDotT(tid, *x, *y) }
	case lv.Method == Naive:
		red = func(tid int) { lv.reduceNaiveT(tid, nv, *y) }
	case lv.Method == EffectiveRanges && dot != nil:
		red = func(tid int) { dot[tid*DotStride] = lv.reduceEffectiveDotT(tid, *x, *y) }
	case lv.Method == EffectiveRanges:
		red = func(tid int) { lv.reduceEffectiveT(tid, nv, *y) }
	case lv.Method == Indexed:
		red = func(tid int) { lv.reduceIndexedT(tid, nv, *y) }
	default:
		panic("core: no local-vector reduction for method " + lv.Method.String())
	}
	phases := []parallel.Phase{parallel.ReductionPhase(prefix+"/reduce", red)}
	if lv.Method == Indexed && dot != nil {
		// The indexed reduction touches only conflicted elements, so the dot
		// needs a separate full sweep of y once the reduction has finished.
		phases = append(phases, parallel.ComputePhase(prefix+"/dot",
			func(tid int) { dot[tid*DotStride] = dotChunkT(lv.redPart, tid, *x, *y) }))
	}
	return phases
}

// reduceNaiveT sums the p full-length local vectors into y over thread tid's
// uniform row chunk (Alg. 3 lines 12–15), one flat span of nv·rows floats,
// re-zeroing the locals in the same pass.
func (lv *LocalVectors) reduceNaiveT(tid, nv int, y []float64) {
	lo, hi := int(lv.redPart.Start[tid])*nv, int(lv.redPart.End[tid])*nv
	for i := lo; i < hi; i++ {
		sum := 0.0
		for _, local := range lv.Vecs {
			sum += local[i]
			local[i] = 0
		}
		y[i] = sum
	}
}

func (lv *LocalVectors) reduceNaiveDotT(tid int, x, y []float64) float64 {
	lo, hi := lv.redPart.Start[tid], lv.redPart.End[tid]
	dot := 0.0
	for r := lo; r < hi; r++ {
		sum := 0.0
		for _, local := range lv.Vecs {
			sum += local[r]
			local[r] = 0
		}
		y[r] = sum
		dot += x[r] * sum
	}
	return dot
}

// reduceEffectiveT folds the effective regions into y over thread tid's
// uniform row chunk, one owner's rows at a time: row r receives the locals of
// every thread after its owner (their effective ranges all cover r, since
// partition starts are non-decreasing), and rows of the last owner receive
// none. One binary search at the chunk start seeds the owner cursor; each
// owner's rows are one flat span of nv·rows floats.
func (lv *LocalVectors) reduceEffectiveT(tid, nv int, y []float64) {
	lo, hi := lv.redPart.Start[tid], lv.redPart.End[tid]
	for own := lv.Part.Owner(lo); lo < hi && own+1 < lv.p; own++ {
		end := min(hi, lv.Part.End[own])
		later := lv.Vecs[own+1:]
		for i := int(lo) * nv; i < int(end)*nv; i++ {
			sum := y[i]
			for _, local := range later {
				sum += local[i]
				local[i] = 0
			}
			y[i] = sum
		}
		lo = end
	}
}

func (lv *LocalVectors) reduceEffectiveDotT(tid int, x, y []float64) float64 {
	lo, hi := lv.redPart.Start[tid], lv.redPart.End[tid]
	dot := 0.0
	for own := lv.Part.Owner(lo); lo < hi; own++ {
		end := min(hi, lv.Part.End[own])
		later := lv.Vecs[own+1:]
		for r := lo; r < end; r++ {
			sum := y[r]
			for _, local := range later {
				sum += local[r]
				local[r] = 0
			}
			y[r] = sum
			dot += x[r] * sum
		}
		lo = end
	}
	return dot
}

// reduceIndexedT walks worker tid's slice of the reduction-ordered conflict
// index, adding exactly the touched local elements — nv lanes per entry —
// into y. Entries are grouped into per-Vid runs, so each run streams one
// local vector sequentially; worker boundaries never split an Idx value, so
// each output element is written by a single worker.
func (lv *LocalVectors) reduceIndexedT(tid, nv int, y []float64) {
	// The worker's entries are cut out of lv once, so the walk below indexes
	// them unchecked and loads each entry once.
	entries := lv.redEntries[lv.redSplit[tid]:lv.redSplit[tid+1]]
	for e := 0; e < len(entries); {
		vid := entries[e].Vid
		rows := int(lv.Part.Start[vid]) * nv
		local := lv.Vecs[vid][:rows]
		yv := y[:rows] // one check serves both vectors
		if nv == 1 {
			for ; e < len(entries) && entries[e].Vid == vid; e++ {
				idx := entries[e].Idx
				yv[idx] += local[idx]
				local[idx] = 0
			}
			continue
		}
		for ; e < len(entries) && entries[e].Vid == vid; e++ {
			base := int(entries[e].Idx) * nv
			yb := yv[base : base+nv : base+nv]
			lb := local[base : base+nv : base+nv]
			for v := range yb {
				yb[v] += lb[v]
				lb[v] = 0
			}
		}
	}
}

// dotChunkT computes the xᵀy partial over thread tid's chunk of part.
func dotChunkT(part *partition.RowPartition, tid int, x, y []float64) float64 {
	sum := 0.0
	for r := part.Start[tid]; r < part.End[tid]; r++ {
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
