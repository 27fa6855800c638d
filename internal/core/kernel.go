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
	// Colored prevents write conflicts instead of repairing them (RACE-style
	// block coloring, internal/color): row blocks whose write sets are
	// disjoint share a color, execution runs one spin-barrier phase per
	// color, and every thread writes y directly — no local vectors and no
	// reduction phase at all, at the price of colors−1 extra barriers.
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

	// Colored-method state: the conflict-free block schedule and the uniform
	// row split used by the diagonal-init and fused-dot phases.
	sched    *color.Schedule
	initPart *partition.RowPartition

	// dotPart holds the per-thread partial sums of MulVecDot, one cache line
	// apart, allocated on first use.
	dotPart []float64

	// wide holds the nv-wide local vectors of MulMat, sized lazily.
	wide *wideLocals

	// curX/curY are the operands of the operation in flight. The phase lists
	// are assembled once (plain in NewKernel, dot on the first MulVecDot, mat
	// on the first MulMat of a given nv) as closures that read these fields,
	// so repeated operations reuse the same closures and the hot path
	// allocates nothing. A Kernel has never supported concurrent operations —
	// it owns per-thread local vectors — so a single operand slot is safe.
	// Every phase carries the span name and kind the pool's sampler files its
	// time under (parallel.Phase).
	curX, curY []float64
	plain, dot *parallel.PhaseList

	// SpMM state: the phase list of the most recent MulMat vector count.
	// Switching nv reassembles; steady-state block solvers reuse it.
	mat   *parallel.PhaseList
	matNV int

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
	part := partition.ByNNZ(s.RowPtr, p)
	k := &Kernel{
		S:      s,
		Method: method,
		Part:   part,
		pool:   pool,
		p:      p,
	}
	switch method {
	case Colored:
		k.sched = color.Build(s.N, s.RowPtr, s.ColIdx, p, color.Options{})
		k.initPart = partition.Uniform(s.N, p)
	default:
		var touched [][]int32
		if method == Indexed {
			touched = TouchedColumns(s, part, pool)
		}
		k.LV = NewLocalVectors(s.N, part, method, touched)
	}
	k.plain = k.assemble(nil, OpSpMV)
	return k
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
// CG iteration needs right after its SpM×V. The dot rides inside the
// reduction phase as per-thread partial sums combined after the barrier, so
// the pair costs the same single coordinator handoff as MulVec alone. The
// partials are combined in ascending thread order over parallel.Chunk
// ranges, making the result bitwise identical to vec.Dot(x, y) on the
// finished output.
func (k *Kernel) MulVecDot(x, y []float64) float64 {
	k.checkDims(x, y)
	if k.dot == nil {
		k.dotPart = make([]float64, k.p*DotStride)
		k.dot = k.assemble(k.dotPart, OpSpMVDot)
	}
	k.curX, k.curY = x, y
	k.pool.RunPhaseList(k.dot)
	k.curX, k.curY = nil, nil
	total := 0.0
	for t := 0; t < k.p; t++ {
		total += k.dotPart[t*DotStride]
	}
	return total
}

func (k *Kernel) checkDims(x, y []float64) {
	if len(x) != k.S.N || len(y) != k.S.N {
		panic(fmt.Sprintf("core: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			k.S.N, k.S.N, len(x), len(y)))
	}
}

// assemble builds the SpM×V list for this kernel as closures over
// k.curX/k.curY, the operand slots MulVec sets per call. The list is built
// once and reused for every operation, which is what keeps the hot path
// allocation-free. With dot non-nil the chain additionally leaves xᵀy partial
// sums in dot[tid*DotStride].
func (k *Kernel) assemble(dot []float64, op OpClass) *parallel.PhaseList {
	return k.newList(k.phases(dot), phaseObs[k.Method], op, 1)
}

// phases labels the chain: multiply (compute) → reduce (reduction), with the
// Indexed fused-dot variant's trailing sweep again compute.
func (k *Kernel) phases(dot []float64) []parallel.Phase {
	name := k.Method.String()
	var mult func(tid int)
	switch k.Method {
	case Naive:
		mult = func(tid int) { k.multiplyNaiveT(tid, k.curX) }
		if k.S.Kind != Sym {
			mult = func(tid int) { k.multiplyNaiveKindT(tid, k.curX) }
		}
	case EffectiveRanges, Indexed:
		mult = func(tid int) { k.multiplyEffectiveT(tid, k.curX, k.curY) }
		if k.S.Kind != Sym {
			mult = func(tid int) { k.multiplyEffectiveKindT(tid, k.curX, k.curY) }
		}
	case Colored:
		return k.assembleColored(dot)
	default:
		panic("core: unknown reduction method " + name)
	}
	return append([]parallel.Phase{parallel.ComputePhase(name+"/multiply", mult)},
		k.LV.ReducePhases(name, &k.curX, &k.curY, dot)...)
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

// EffectiveDensity reports the density d of the effective regions (Fig. 4).
func (k *Kernel) EffectiveDensity() float64 {
	if k.LV == nil {
		return 0
	}
	return k.LV.EffectiveDensity()
}
