package core

import (
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/vec"
)

// DotStride spaces per-thread dot partials eight float64s (one cache line)
// apart so concurrent writers never share a line: a one-lane dot's thread tid
// writes dot[tid*DotStride], an nv-lane dot's the nv from
// dot[tid*dotStride(nv)] on.
const DotStride = 8

// dotStride is a thread's block of nv-lane dot partials, in whole lines.
func dotStride(nv int) int { return (nv + DotStride - 1) / DotStride * DotStride }

// dotLanes is thread tid's lane partials of a fused dot; nil without one.
func dotLanes(dot []float64, tid, nv int) []float64 {
	if dot == nil {
		return nil
	}
	return dot[tid*dotStride(nv):][:nv]
}

// dotBlock is how many rows a reduction finishes before a fused dot adds
// their xᵀy, while they are still in cache.
const dotBlock = 256

// addDots adds each lane's xᵀy over rows [lo, hi) to dot, the sweep of
// vec.MultiDots; nothing without a dot.
func addDots(lo, hi int32, nv int, x, y, dot []float64) {
	if dot != nil {
		vec.LaneDots(x[int(lo)*nv:int(hi)*nv], y[int(lo)*nv:int(hi)*nv], dot)
	}
}

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
// With dot non-nil the reduction is fused with each lane's dot product xᵀy:
// after the phases have run, thread tid's lane partials (dotLanes) hold its
// contribution over its reduction range. The caller combines them in
// ascending tid order; the per-thread ranges equal parallel.Chunk(N, p) and
// each is summed by vec.LaneDots in row order, so each lane's combined sum is
// bitwise vec.MultiDots over the finished y. Span names are prefix/reduce and
// prefix/dot.
func (lv *LocalVectors) ReducePhases(prefix string, x, y *[]float64, dot []float64, nv int) []parallel.Phase {
	var red func(tid int)
	switch lv.Method {
	case Naive:
		red = func(tid int) { lv.reduceNaiveT(tid, nv, *x, *y, dotLanes(dot, tid, nv)) }
	case EffectiveRanges:
		red = func(tid int) { lv.reduceEffectiveT(tid, nv, *x, *y, dotLanes(dot, tid, nv)) }
	case Indexed:
		red = func(tid int) { lv.reduceIndexedT(tid, nv, *y) }
	default:
		panic("core: no local-vector reduction for method " + lv.Method.String())
	}
	phases := []parallel.Phase{parallel.ReductionPhase(prefix+"/reduce", red)}
	if lv.Method == Indexed && dot != nil {
		// The indexed reduction touches only conflicted elements, so the dot
		// needs a separate full sweep of y once the reduction has finished.
		phases = append(phases, parallel.ComputePhase(prefix+"/dot",
			func(tid int) { dotChunkT(lv.redPart, tid, nv, *x, *y, dotLanes(dot, tid, nv)) }))
	}
	return phases
}

// reduceNaiveT sums the p full-length local vectors into y over thread tid's
// uniform row chunk (Alg. 3 lines 12–15), one flat span of nv·rows floats,
// re-zeroing the locals in the same pass, dotBlock rows at a time. With dot
// non-nil it sets dot to each lane's xᵀy over the chunk.
func (lv *LocalVectors) reduceNaiveT(tid, nv int, x, y, dot []float64) {
	clear(dot)
	for lo, hi := lv.redPart.Start[tid], lv.redPart.End[tid]; lo < hi; lo += dotBlock {
		end := min(hi, lo+dotBlock)
		for i := int(lo) * nv; i < int(end)*nv; i++ {
			sum := 0.0
			for _, local := range lv.Vecs {
				sum += local[i]
				local[i] = 0
			}
			y[i] = sum
		}
		addDots(lo, end, nv, x, y, dot)
	}
}

// reduceEffectiveT folds the effective regions into y over thread tid's
// uniform row chunk, one owner's rows at a time: row r receives the locals of
// every thread after its owner (their effective ranges all cover r, since
// partition starts are non-decreasing), and rows of the last owner receive
// none. A binary search per dotBlock rows seeds the owner cursor; each
// owner's rows are one flat span of nv·rows floats. With dot non-nil it sets
// dot to each lane's xᵀy over the chunk.
func (lv *LocalVectors) reduceEffectiveT(tid, nv int, x, y, dot []float64) {
	clear(dot)
	for lo, hi := lv.redPart.Start[tid], lv.redPart.End[tid]; lo < hi; lo += dotBlock {
		end := min(hi, lo+dotBlock)
		for own, at := lv.Part.Owner(lo), lo; at < end && own+1 < lv.p; own++ {
			stop := min(end, lv.Part.End[own])
			later := lv.Vecs[own+1:]
			for i := int(at) * nv; i < int(stop)*nv; i++ {
				sum := y[i]
				for _, local := range later {
					sum += local[i]
					local[i] = 0
				}
				y[i] = sum
			}
			at = stop
		}
		addDots(lo, end, nv, x, y, dot)
	}
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

// dotChunkT sets dot to each lane's xᵀy over thread tid's chunk of part.
func dotChunkT(part *partition.RowPartition, tid, nv int, x, y, dot []float64) {
	clear(dot)
	addDots(part.Start[tid], part.End[tid], nv, x, y, dot)
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
