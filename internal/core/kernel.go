package core

import (
	"fmt"

	"repro/internal/color"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// ReductionMethod selects how per-thread local output vectors are combined
// into the final output vector after the multiplication phase.
type ReductionMethod int

const (
	// Naive gives every thread a full-length local vector; all writes go to
	// the local vector and a full p-vector reduction follows (Fig. 3b).
	Naive ReductionMethod = iota
	// EffectiveRanges (Batista et al.) writes rows inside the thread's own
	// partition directly to the output vector; only the conflicting region
	// [0, start_i) is buffered locally and reduced (Fig. 3c).
	EffectiveRanges
	// Indexed is the paper's contribution: like EffectiveRanges, but a sorted
	// (vid, idx) index built once per matrix/partition names exactly the
	// local-vector entries that are written, and the reduction touches only
	// those (Fig. 3d).
	Indexed
	// Colored prevents write conflicts instead of repairing them
	// (internal/color): each thread runs its range without the elements
	// whose column lies below the range's first row, then, after a barrier,
	// those deferred elements, whose write sets the schedule keeps disjoint.
	// Every thread writes y directly — no local vectors and no reduction
	// phase at all, at the price of a second barrier.
	Colored
)

// String implements fmt.Stringer.
func (m ReductionMethod) String() string {
	switch m {
	case Naive:
		return "naive"
	case EffectiveRanges:
		return "effective-ranges"
	case Indexed:
		return "indexed"
	case Colored:
		return "colored"
	default:
		return fmt.Sprintf("ReductionMethod(%d)", int(m))
	}
}

// IndexEntry names one conflicting local-vector element: local vector Vid,
// element index Idx. The paper stores both fields in four bytes each.
type IndexEntry struct {
	Vid int32
	Idx int32
}

// Kernel is a multithreaded symmetric SpM×V engine over the SSS format: an
// nnz-balanced row partition, per-thread local vectors sized according to
// the reduction method, and (for Indexed) the conflict index. Create with
// NewKernel; a Kernel is tied to the pool it was created with.
type Kernel struct {
	S      *SSS
	Method ReductionMethod
	Part   *partition.RowPartition
	LV     *LocalVectors

	pool *parallel.Pool
	p    int

	// splitEnd is each thread's local frontier (every method but naive): the
	// split and direct cells run rows from there on as the y loop alone.
	splitEnd []int32

	// Colored-method state: the two-phase schedule, whose ranges and
	// frontiers are Part and splitEnd, and the uniform row split of the
	// fused-dot phase.
	sched   *color.Schedule
	dotRows *partition.RowPartition

	// curX/curY are the operands of the operation in flight. The phase lists
	// are assembled once (plain in NewKernel, mat[nv] on the first MulMat and
	// dot[nv] on the first fused dot at width nv) as closures that read these
	// fields, so repeated operations — at any mix of widths — reuse the same
	// closures and the hot path allocates nothing. A Kernel has never
	// supported concurrent operations — it owns per-thread local vectors — so
	// a single operand slot is safe. Every phase carries the span name and
	// kind the pool's sampler files its time under (parallel.Phase). dotPart[nv]
	// holds dot[nv]'s per-thread lane partials, dotStride(nv) apart.
	curX, curY []float64
	plain      *parallel.PhaseList
	mat, dot   []*parallel.PhaseList
	dotPart    [][]float64

	// sampleHook, when set, receives every sampled operation of the three
	// lists (sample.go).
	sampleHook func(PhaseSample)
}

// NewKernel builds the parallel kernel. The partition is computed over the
// strict lower triangle row pointer, matching the paper's nnz-balanced
// row-wise assignment. For the Indexed method the symbolic analysis runs
// here, once, and is reused across multiplications. Every method runs all
// three symmetry classes (the template's kind cells). A matrix that fails
// Validate panics with Validate's error: FromCOO and FromCOOStructural never
// build one, and no kernel body checks the structure again.
func NewKernel(s *SSS, method ReductionMethod, pool *parallel.Pool) *Kernel {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	p := pool.Size()
	k := &Kernel{S: s, Method: method, pool: pool, p: p}
	switch method {
	case Colored:
		k.sched = color.Build(s.N, s.RowPtr, s.ColIdx, p, color.Options{})
		k.Part, k.splitEnd = k.sched.Part, k.sched.Frontier
		k.dotRows = partition.Uniform(s.N, p)
	default:
		k.Part = partition.ByNNZ(s.RowPtr, p)
		var touched [][]int32
		if method == Indexed {
			touched = TouchedColumns(s, k.Part, pool)
		}
		if method != Naive {
			k.splitEnd = splitEnds(s, k.Part)
		}
		k.LV = NewLocalVectors(s.N, k.Part, method, touched)
	}
	k.plain = k.assemble(nil, OpSpMV, 1)
	return k
}

// splitEnds returns each thread's local frontier (partition.Frontier): rows
// past it write only y.
func splitEnds(s *SSS, part *partition.RowPartition) []int32 {
	ends := make([]int32, part.P())
	for t := range ends {
		ends[t], _ = partition.Frontier(s.RowPtr, s.ColIdx, part.Start[t], part.End[t])
	}
	return ends
}

// SplitRows reports, per thread, how many rows run before its local frontier:
// with the local loop (effective ranges, indexed) or with deferred elements
// in phase 2 (colored); nil for the naive method.
func (k *Kernel) SplitRows() []int {
	if k.splitEnd == nil {
		return nil
	}
	rows := make([]int, k.p)
	for t := range rows {
		rows[t] = int(k.splitEnd[t] - k.Part.Start[t])
	}
	return rows
}

// MulVec computes y = A·x: the parallel multiplication phase followed by the
// reduction phase selected by Method, one prebuilt phase list the pool runs in
// one coordinator handoff. Local vectors are re-zeroed during the reduction,
// so repeated calls reuse all buffers without extra clearing, and the call
// allocates nothing. Whether the run is sampled is the pool's business.
func (k *Kernel) MulVec(x, y []float64) {
	k.checkDims(x, y)
	k.curX, k.curY = x, y
	k.pool.RunPhaseList(k.plain)
	k.curX, k.curY = nil, nil
}

// MulVecDot computes y = A·x and returns xᵀ·y, the pᵀ·(A·p) inner product a
// CG iteration needs right after its SpM×V: MulMatDot at one lane.
func (k *Kernel) MulVecDot(x, y []float64) float64 {
	var dot [1]float64
	_ = k.MulMatDot(x, y, 1, dot[:])
	return dot[0]
}

// MulMatDot computes Y = A·X for nv interleaved vectors, as MulMat does, and
// sets dots[v] to lane v's xᵀy. The dots ride inside the reduction phase as
// per-thread lane partials combined after the barrier, so the pair costs the
// same single coordinator handoff as MulMat alone. The partials are summed by
// vec.LaneDots over parallel.Chunk ranges and combined in ascending thread
// order, making each lane bitwise vec.MultiDots(x, y) on the finished output.
// At nv = 1 it runs every symmetry class and panics on bad dimensions, as
// MulVec does.
func (k *Kernel) MulMatDot(x, y []float64, nv int, dots []float64) error {
	if nv == 1 {
		k.checkDims(x, y)
	} else if err := k.checkMat(x, y, nv); err != nil {
		return err
	}
	l, part := grow(&k.dot, nv), grow(&k.dotPart, nv)
	if *l == nil {
		*part = make([]float64, k.p*dotStride(nv))
		op := OpSpMVDot
		if nv > 1 {
			op = OpSpMMDot
		}
		*l = k.assemble(*part, op, nv)
	}
	k.curX, k.curY = x, y
	k.pool.RunPhaseList(*l)
	k.curX, k.curY = nil, nil
	dots = dots[:nv]
	clear(dots)
	for t := range k.p {
		for v, s := range (*part)[t*dotStride(nv):][:nv] {
			dots[v] += s
		}
	}
	return nil
}

// grow returns the slot of width nv in a per-width store, growing the store
// to hold it.
func grow[T any](store *[]T, nv int) *T {
	if nv >= len(*store) {
		*store = append(*store, make([]T, nv+1-len(*store))...)
	}
	return &(*store)[nv]
}

func (k *Kernel) checkDims(x, y []float64) {
	if len(x) != k.S.N || len(y) != k.S.N {
		panic(fmt.Sprintf("core: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			k.S.N, k.S.N, len(x), len(y)))
	}
}

// assemble builds the list of the operation (op, nv) for this kernel as
// closures over k.curX/k.curY, the operand slots MulVec and MulMat set per
// call. The list is built once and reused for every operation, which is what
// keeps the hot path allocation-free. With dot non-nil the chain additionally
// leaves each lane's xᵀy partial sums in dot (dotLanes).
func (k *Kernel) assemble(dot []float64, op OpClass, nv int) *parallel.PhaseList {
	mo := phaseObs[k.Method]
	if nv > 1 {
		mo = spmmObs[k.Method]
	}
	return k.newList(k.phases(dot, nv), mo, op, nv)
}

// phases labels the nv-lane chain: multiply (compute) → reduce (reduction),
// with the Indexed fused-dot variant's trailing sweep again compute; the
// colored schedule's phase 1 → phase 2 instead. The multiply is the template
// cell for the method, the symmetry class and the lane width.
func (k *Kernel) phases(dot []float64, nv int) []parallel.Phase {
	name := k.Method.String()
	if nv > 1 {
		name += "-spmm"
	}
	if k.Method == Colored {
		return k.assembleColored(name, dot, nv)
	}
	naive, kind := k.Method == Naive, k.S.Kind != Sym
	var mult func(tid int)
	switch {
	case nv == 1 && naive && kind:
		mult = func(tid int) { k.multiplyNaiveKindT(tid, k.curX) }
	case nv == 1 && naive:
		mult = func(tid int) { k.multiplyNaiveT(tid, k.curX) }
	case nv == 1 && kind:
		mult = func(tid int) { k.multiplyEffectiveKindT(tid, k.curX, k.curY) }
	case nv == 1:
		mult = func(tid int) { k.multiplyEffectiveT(tid, k.curX, k.curY) }
	case naive:
		mult = laneCell(nv, k.mulMatNaive2T, k.mulMatNaive4T, k.mulMatNaive8T, k.mulMatNaiveT)
	default:
		mult = laneCell(nv, k.mulMatEffective2T, k.mulMatEffective4T, k.mulMatEffective8T, k.mulMatEffectiveT)
	}
	k.LV.Lanes(nv)
	return append([]parallel.Phase{parallel.ComputePhase(name+"/multiply", mult)},
		k.LV.ReducePhases(name, &k.curX, &k.curY, dot, nv)...)
}

// laneCell picks the SpMM cell of lane width nv: the template's
// register-blocked cell for nv ∈ {2, 4, 8}, its any-width cell otherwise.
func laneCell[R any](nv int, w2, w4, w8 func(R), anyNV func(R, int)) func(R) {
	switch nv {
	case 2:
		return w2
	case 4:
		return w4
	case 8:
		return w8
	}
	return func(rows R) { anyNV(rows, nv) }
}

// IndexLen reports the number of conflict-index entries; zero for
// non-Indexed kernels.
func (k *Kernel) IndexLen() int {
	if k.LV == nil {
		return 0
	}
	return k.LV.IndexLen()
}

// EffectiveRegionSize reports the summed length of all effective regions.
func (k *Kernel) EffectiveRegionSize() int64 {
	if k.LV == nil {
		return 0
	}
	return k.LV.EffectiveRegionSize()
}
