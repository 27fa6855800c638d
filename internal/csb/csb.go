// Package csb implements a symmetric Compressed Sparse Blocks kernel in the
// spirit of Buluç, Williams, Oliker & Demmel (IPDPS'11) — the related-work
// comparator the paper discusses in §VI. The matrix is tiled into β×β
// blocks addressed by short (16-bit) local coordinates; only the lower
// block triangle is stored. Transposed contributions from the three
// innermost block diagonals (block offsets 0, 1, 2 — the bulk of the
// nonzeros in bandable matrices) land in the owner's output range or one of
// two shared offset buffers whose writer ranges are disjoint across
// threads; contributions from farther blocks fall back to lock-free atomic
// updates. The reduction phase is therefore always three vector additions,
// independent of the thread count — the property the paper contrasts with
// its index-based scheme, and the reason CSB-Sym struggles on
// high-bandwidth matrices (the atomic fallback).
package csb

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// SymMatrix is a symmetric sparse matrix in blocked form: dense diagonal in
// DValues, strict lower triangle in β×β blocks with 16-bit in-block
// coordinates.
type SymMatrix struct {
	N    int
	Beta int // block edge; local coordinates must fit uint16
	NB   int // block rows/cols

	DValues []float64

	BlockPtr []int32 // per block row, offsets into BlockCol/ElemPtr
	BlockCol []int32 // block column per stored block
	ElemPtr  []int32 // per block, offsets into LRow/LCol/Val (len blocks+1)
	LRow     []uint16
	LCol     []uint16
	Val      []float64

	// Per-offset element counts (offset = blockRow − blockCol): offsets 0,1,2
	// are buffered; entries beyond go through atomics. Drives the cost model.
	OffsetElems [3]int64
	FarElems    int64
}

// NewSym tiles an SSS matrix with β×β blocks. β must fit uint16 local
// coordinates (β ≤ 65536); 0 selects a default of 1024.
func NewSym(s *core.SSS, beta int) (*SymMatrix, error) {
	if beta == 0 {
		beta = 1024
	}
	if beta < 16 || beta > 1<<16 {
		return nil, fmt.Errorf("csb: beta %d out of [16, 65536]", beta)
	}
	if s.Kind != core.Sym {
		return nil, fmt.Errorf("csb: only symmetric matrices are supported, got %s", s.Kind)
	}
	nb := (s.N + beta - 1) / beta
	sm := &SymMatrix{
		N: s.N, Beta: beta, NB: nb,
		DValues:  s.DValues,
		BlockPtr: make([]int32, nb+1),
	}

	// Pass 1: count elements per block, collecting block ids per block row.
	type blockKey struct{ i, j int32 }
	counts := make(map[blockKey]int32)
	for r := 0; r < s.N; r++ {
		bi := int32(r / beta)
		for k := s.RowPtr[r]; k < s.RowPtr[r+1]; k++ {
			bj := s.ColIdx[k] / int32(beta)
			counts[blockKey{bi, bj}]++
		}
	}
	// Group blocks by block row, ascending block col.
	perRow := make([][]int32, nb)
	for key := range counts {
		perRow[key.i] = append(perRow[key.i], key.j)
	}
	totalBlocks := len(counts)
	sm.BlockCol = make([]int32, 0, totalBlocks)
	sm.ElemPtr = make([]int32, 1, totalBlocks+1)
	slot := make(map[blockKey]int32, totalBlocks)
	for bi := 0; bi < nb; bi++ {
		cols := perRow[bi]
		sort.Slice(cols, func(a, b int) bool { return cols[a] < cols[b] })
		for _, bj := range cols {
			key := blockKey{int32(bi), bj}
			slot[key] = int32(len(sm.BlockCol))
			sm.BlockCol = append(sm.BlockCol, bj)
			sm.ElemPtr = append(sm.ElemPtr, sm.ElemPtr[len(sm.ElemPtr)-1]+counts[key])
			if off := int32(bi) - bj; off < 3 {
				sm.OffsetElems[off] += int64(counts[key])
			} else {
				sm.FarElems += int64(counts[key])
			}
		}
		sm.BlockPtr[bi+1] = int32(len(sm.BlockCol))
	}
	// Pass 2: scatter elements into their blocks (insertion cursor per block).
	n := len(s.Val)
	sm.LRow = make([]uint16, n)
	sm.LCol = make([]uint16, n)
	sm.Val = make([]float64, n)
	cursor := make([]int32, totalBlocks)
	copy(cursor, sm.ElemPtr[:totalBlocks])
	for r := 0; r < s.N; r++ {
		bi := int32(r / beta)
		for k := s.RowPtr[r]; k < s.RowPtr[r+1]; k++ {
			c := s.ColIdx[k]
			key := blockKey{bi, c / int32(beta)}
			sl := slot[key]
			pos := cursor[sl]
			cursor[sl]++
			sm.LRow[pos] = uint16(r - int(bi)*beta)
			sm.LCol[pos] = uint16(int(c) - int(key.j)*beta)
			sm.Val[pos] = s.Val[k]
		}
	}
	return sm, nil
}

// NNZLower reports the stored strict-lower-triangle nonzeros.
func (sm *SymMatrix) NNZLower() int { return len(sm.Val) }

// Bytes reports the in-memory size: 12 bytes per element (two 16-bit local
// coordinates + 8-byte value), block metadata, and the dense diagonal.
func (sm *SymMatrix) Bytes() int64 {
	return int64(12*len(sm.Val)) +
		int64(4*len(sm.BlockCol)) + int64(4*len(sm.ElemPtr)) + int64(4*len(sm.BlockPtr)) +
		int64(8*sm.N)
}

// Kernel is the multithreaded CSB-Sym engine bound to a pool.
type Kernel struct {
	M    *SymMatrix
	Part *partition.RowPartition // over block rows
	pool *parallel.Pool

	buf1, buf2 []float64 // offset-1 and offset-2 shared buffers
	accFar     []uint64  // atomic accumulator for far transposed writes
	redPart    *partition.RowPartition

	// The multiply→reduce list, built once over the operand slots x/y, so a
	// product is one coordinator handoff and allocates nothing.
	x, y []float64
	list parallel.PhaseList
}

// metrics files CSB-Sym products under the SpM×V metric families.
var metrics = parallel.NewOpMetrics("symspmv_spmv", "csb-sym")

// NewKernel partitions the block rows by element count over pool.
func NewKernel(sm *SymMatrix, pool *parallel.Pool) *Kernel {
	k := &Kernel{
		M:       sm,
		Part:    partition.ByNNZ(blockRowElems(sm), pool.Size()),
		pool:    pool,
		buf1:    make([]float64, sm.N),
		buf2:    make([]float64, sm.N),
		accFar:  make([]uint64, sm.N),
		redPart: partition.Uniform(sm.N, pool.Size()),
	}
	k.list = parallel.PhaseList{Metrics: metrics, Phases: []parallel.Phase{
		parallel.ComputePhase("csb-sym/multiply", k.multiplyT),
		parallel.ReductionPhase("csb-sym/reduce", k.reduceT),
	}}
	return k
}

// blockRowElems builds a CSR-style pointer over block rows weighted by
// element count (for the nnz-balanced partition).
func blockRowElems(sm *SymMatrix) []int32 {
	ptr := make([]int32, sm.NB+1)
	for bi := 0; bi < sm.NB; bi++ {
		ptr[bi+1] = sm.ElemPtr[sm.BlockPtr[bi+1]] // cumulative by construction
	}
	return ptr
}

// MulVec computes y = A·x. Direct contributions and offset-0 transposed
// writes go straight to y (block-row ownership makes them exclusive);
// offset-1/-2 transposed writes go to the shared buffers (writer ranges are
// disjoint across threads for a fixed offset); farther offsets use atomic
// CAS. The reduction folds the two buffers and the atomic accumulator into
// y — constant three additions regardless of thread count.
func (k *Kernel) MulVec(x, y []float64) {
	if len(x) != k.M.N || len(y) != k.M.N {
		panic(fmt.Sprintf("csb: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			k.M.N, k.M.N, len(x), len(y)))
	}
	k.x, k.y = x, y
	k.pool.RunPhaseList(&k.list)
	k.x, k.y = nil, nil
}

// multiplyT is thread tid's slice of the multiplication phase.
func (k *Kernel) multiplyT(tid int) {
	sm, x, y := k.M, k.x, k.y
	beta := sm.Beta
	// Own rows: diagonal contribution initializes y.
	rLo := int(k.Part.Start[tid]) * beta
	rHi := int(k.Part.End[tid]) * beta
	if rHi > sm.N {
		rHi = sm.N
	}
	for r := rLo; r < rHi; r++ {
		y[r] = sm.DValues[r] * x[r]
	}
	for bi := k.Part.Start[tid]; bi < k.Part.End[tid]; bi++ {
		r0 := int(bi) * beta
		for b := sm.BlockPtr[bi]; b < sm.BlockPtr[bi+1]; b++ {
			bj := sm.BlockCol[b]
			c0 := int(bj) * beta
			off := bi - bj
			var target []float64
			switch off {
			case 0, 1, 2:
				// Offset 0: the block column range is inside this
				// thread's own rows only when the whole offset-0..2
				// band is owned; offset 0 targets block row bi itself
				// (owned), offsets 1–2 may cross into the previous
				// thread's rows, hence the shared buffers.
				switch off {
				case 0:
					target = y
				case 1:
					target = k.buf1
				default:
					target = k.buf2
				}
				for e := sm.ElemPtr[b]; e < sm.ElemPtr[b+1]; e++ {
					r := r0 + int(sm.LRow[e])
					c := c0 + int(sm.LCol[e])
					v := sm.Val[e]
					y[r] += v * x[c]
					target[c] += v * x[r]
				}
			default:
				for e := sm.ElemPtr[b]; e < sm.ElemPtr[b+1]; e++ {
					r := r0 + int(sm.LRow[e])
					c := c0 + int(sm.LCol[e])
					v := sm.Val[e]
					y[r] += v * x[c]
					atomicAddFloat(&k.accFar[c], v*x[r])
				}
			}
		}
	}
}

// reduceT is the reduction over thread tid's uniform row chunk:
// y += buf1 + buf2 + far, re-zeroing the buffers.
func (k *Kernel) reduceT(tid int) {
	y := k.y
	lo, hi := k.redPart.Start[tid], k.redPart.End[tid]
	for r := lo; r < hi; r++ {
		y[r] += k.buf1[r] + k.buf2[r] + math.Float64frombits(k.accFar[r])
		k.buf1[r] = 0
		k.buf2[r] = 0
		k.accFar[r] = 0
	}
}

// atomicAddFloat adds v to the float64 stored as bits behind p, lock-free.
func atomicAddFloat(p *uint64, v float64) {
	for {
		old := atomic.LoadUint64(p)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(p, old, next) {
			return
		}
	}
}
