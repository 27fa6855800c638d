package csx

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// SymMatrix is a CSX-Sym matrix: the strict lower triangle encoded as
// per-thread CSX blobs (substructures detected only in the lower half, each
// implying its symmetric counterpart), plus a dense diagonal array exactly
// like SSS. Runs whose symmetric writes would straddle the thread's
// local/direct boundary are never encoded as substructures, and a strip cuts
// its runs there — the legality rule of Fig. 8 — so the multiply kernel
// decides local-vs-direct once per unit or strip run, not once per element.
type SymMatrix struct {
	N       int
	DValues []float64
	Blobs   []*Blob
	Part    *partition.RowPartition
	Method  core.ReductionMethod
	LV      *core.LocalVectors

	nnzLower int

	// curX/curY are the operands of the operation in flight: the two phase
	// lists are assembled once, on first use, as closures over these slots
	// (like core.Kernel's), so a product allocates nothing. dot holds the
	// per-thread partial sums of MulVecDot, one cache line apart.
	curX, curY   []float64
	plain, fused parallel.PhaseList
	dot          []float64
}

// symMetrics files CSX-Sym products under the SpM×V metric families.
var symMetrics = parallel.NewOpMetrics("symspmv_spmv", "csx-sym")

// NewSym encodes an SSS matrix into CSX-Sym with p per-thread blobs and the
// given local-vectors reduction method (the paper pairs CSX-Sym with the
// indexed reduction; Naive/EffectiveRanges are supported for ablations).
func NewSym(s *core.SSS, p int, method core.ReductionMethod, opts Options) *SymMatrix {
	if s.Kind != core.Sym {
		// The CSX-Sym encoder bakes the symmetric scatter into its unit
		// bodies; encoding a skew or structural matrix would silently compute
		// the wrong operator.
		panic(fmt.Sprintf("csx: NewSym supports only symmetric matrices, got %s", s.Kind))
	}
	// The encoder walks RowPtr/ColIdx as trustingly as the SSS kernels do.
	if err := s.Validate(); err != nil {
		panic(err)
	}
	part := partition.ByNNZ(s.RowPtr, p)
	sm := &SymMatrix{
		N:        s.N,
		DValues:  s.DValues,
		Blobs:    make([]*Blob, p),
		Part:     part,
		Method:   method,
		nnzLower: len(s.Val),
	}
	pool := parallel.NewPool(p)
	defer pool.Close()
	pool.Run(func(tid int) {
		el, lo, _ := buildElements(s.RowPtr, s.ColIdx, part.Start[tid], part.End[tid])
		sm.Blobs[tid] = encodeRange(el, s.Val[lo:], opts, part.Start[tid])
	})
	var touched [][]int32
	if method == core.Indexed {
		touched = core.TouchedColumns(s, part, pool)
	}
	sm.LV = core.NewLocalVectors(s.N, part, method, touched)
	return sm
}

// NNZLower reports the stored strict-lower-triangle nonzeros.
func (sm *SymMatrix) NNZLower() int { return sm.nnzLower }

// LogicalNNZ reports the nonzeros of the full symmetric operator (dense
// diagonal counted, as in SSS).
func (sm *SymMatrix) LogicalNNZ() int { return 2*sm.nnzLower + sm.N }

// Bytes reports the encoded size: ctl streams + values + dvalues. The
// local-vector index is the reduction phase's working set, not part of the
// matrix representation (Table I excludes it too).
func (sm *SymMatrix) Bytes() int64 {
	var sum int64
	for _, b := range sm.Blobs {
		sum += b.Bytes()
	}
	return sum + int64(8*sm.N)
}

// CompressionRatio reports 1 − Bytes/CSRBytes against the CSR size of the
// full operator (the Table I metric).
func (sm *SymMatrix) CompressionRatio() float64 {
	csrBytes := int64(12*sm.LogicalNNZ()) + int64(4*(sm.N+1))
	return 1 - float64(sm.Bytes())/float64(csrBytes)
}

// MaxSymCompressionRatio reports the Table I "C.R. (Max.)" bound: a
// hypothetical symmetric format storing only the 8-byte values of the lower
// triangle and diagonal, with no indexing information at all.
func MaxSymCompressionRatio(nnzLower, n int) float64 {
	logical := int64(2*nnzLower + n)
	csrBytes := 12*logical + int64(4*(n+1))
	symBytes := int64(8*nnzLower) + int64(8*n)
	return 1 - float64(symBytes)/float64(csrBytes)
}

// assemble builds the two operations — multiply→reduce, and the same with
// the dot fused into the reduction — over the operand slots.
func (sm *SymMatrix) assemble() {
	mult := parallel.ComputePhase("csx-sym/multiply", func(tid int) { sm.multiplyT(tid, sm.curX, sm.curY) })
	sm.dot = make([]float64, len(sm.Blobs)*core.DotStride)
	sm.plain = parallel.PhaseList{Metrics: symMetrics,
		Phases: append([]parallel.Phase{mult}, sm.LV.ReducePhases("csx-sym", &sm.curX, &sm.curY, nil, 1)...)}
	sm.fused = parallel.PhaseList{Metrics: symMetrics,
		Phases: append([]parallel.Phase{mult}, sm.LV.ReducePhases("csx-sym", &sm.curX, &sm.curY, sm.dot, 1)...)}
}

// MulVec computes y = A·x on pool: the CSX-Sym multiplication phase (dual
// writes per stored element, run-level local/direct routing) followed by
// the configured local-vectors reduction, one prebuilt phase list the pool
// runs in one coordinator handoff.
func (sm *SymMatrix) MulVec(pool *parallel.Pool, x, y []float64) {
	sm.run(pool, &sm.plain, x, y)
}

// MulVecDot computes y = A·x and returns xᵀ·y, with the dot fused into the
// reduction phase exactly like core.Kernel.MulVecDot — the CG fast path for
// CSX-Sym kernels.
func (sm *SymMatrix) MulVecDot(pool *parallel.Pool, x, y []float64) float64 {
	sm.run(pool, &sm.fused, x, y)
	total := 0.0
	for t := range sm.Blobs {
		total += sm.dot[t*core.DotStride]
	}
	return total
}

func (sm *SymMatrix) run(pool *parallel.Pool, l *parallel.PhaseList, x, y []float64) {
	sm.checkDims(pool, x, y)
	if l.Phases == nil {
		sm.assemble()
	}
	sm.curX, sm.curY = x, y
	pool.RunPhaseList(l)
	sm.curX, sm.curY = nil, nil
}

func (sm *SymMatrix) checkDims(pool *parallel.Pool, x, y []float64) {
	if pool.Size() != len(sm.Blobs) {
		panic(fmt.Sprintf("csx: pool size %d != blob count %d", pool.Size(), len(sm.Blobs)))
	}
	if len(x) != sm.N || len(y) != sm.N {
		panic(fmt.Sprintf("csx: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			sm.N, sm.N, len(x), len(y)))
	}
}

// multiplyT runs thread tid's slice of the CSX-Sym multiplication phase.
func (sm *SymMatrix) multiplyT(tid int, x, y []float64) {
	b := sm.Blobs[tid]
	local := sm.LV.Vecs[tid]
	if sm.Method == core.Naive {
		// Naive semantics: *every* write goes to the thread's
		// full-length local vector and the reduction overwrites y.
		// Passing the local as both output and local with a boundary
		// beyond every column routes all unit writes there.
		for r := b.StartRow; r < b.EndRow; r++ {
			local[r] = sm.DValues[r] * x[r]
		}
		mulBlobSym(b, int32(sm.N)+1, x, local, local)
		return
	}
	// Effective-ranges/indexed: initialize the own range with the
	// diagonal contribution; every subsequent write accumulates.
	for r := b.StartRow; r < b.EndRow; r++ {
		y[r] = sm.DValues[r] * x[r]
	}
	mulBlobSym(b, sm.Part.Start[tid], x, y, local)
}
