// Package bcsr implements the Blocked Compressed Sparse Row format (Im &
// Yelick's SPARSITY register blocking, standardized in OSKI) — the classic
// unsymmetric comparator from the paper's related work. The matrix is tiled
// with dense BR×BC blocks; a block is stored (zero-filled) whenever it
// contains at least one nonzero, removing per-element column indices at the
// price of explicit fill.
package bcsr

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// Matrix is a sparse matrix in BCSR form with BR×BC register blocks.
type Matrix struct {
	Rows, Cols int
	BR, BC     int
	BlockRows  int // ceil(Rows/BR)

	RowPtr []int32   // block-row pointers, length BlockRows+1
	ColIdx []int32   // block-column index per stored block
	Val    []float64 // BR·BC values per block, row-major

	nnz int // logical nonzeros (excluding fill)

	// padded scratch vectors for edge blocks (serial kernel)
	xbuf, ybuf []float64
}

// FromCOO tiles a COO matrix (symmetric lower storage is expanded first)
// with br×bc blocks.
func FromCOO(m *matrix.COO, br, bc int) (*Matrix, error) {
	if br < 1 || bc < 1 || br > 16 || bc > 16 {
		return nil, fmt.Errorf("bcsr: block size %dx%d out of [1,16]", br, bc)
	}
	src := m
	if m.Symmetric {
		src = m.ToGeneral()
	} else if !m.IsNormalized() {
		src = m.Clone().Normalize()
	}
	rows, cols := src.Rows, src.Cols
	brows := (rows + br - 1) / br
	bcols := (cols + bc - 1) / bc

	a := &Matrix{
		Rows: rows, Cols: cols, BR: br, BC: bc, BlockRows: brows,
		RowPtr: make([]int32, brows+1),
		nnz:    src.NNZ(),
		xbuf:   make([]float64, bcols*bc),
		ybuf:   make([]float64, brows*br),
	}

	// Pass 1: count distinct blocks per block row. Entries are row-major
	// sorted, but block membership is not monotone in the entry order within
	// a block row, so collect block columns per block row.
	blockCols := make([]map[int32]int32, brows) // block col -> slot (pass 2)
	for k := range src.Val {
		bi := int(src.RowIdx[k]) / br
		if blockCols[bi] == nil {
			blockCols[bi] = make(map[int32]int32)
		}
		blockCols[bi][src.ColIdx[k]/int32(bc)] = -1
	}
	total := 0
	for bi := 0; bi < brows; bi++ {
		total += len(blockCols[bi])
		a.RowPtr[bi+1] = a.RowPtr[bi] + int32(len(blockCols[bi]))
	}
	a.ColIdx = make([]int32, total)
	a.Val = make([]float64, total*br*bc)

	// Pass 2: assign slots in ascending block-column order, then scatter
	// values.
	for bi := 0; bi < brows; bi++ {
		cols := blockCols[bi]
		if cols == nil {
			continue
		}
		// insertion sort the keys into the ColIdx segment (block rows hold
		// few blocks; avoids an extra allocation per row)
		seg := a.ColIdx[a.RowPtr[bi]:a.RowPtr[bi+1]]
		i := 0
		for c := range cols {
			seg[i] = c
			i++
		}
		insertionSort(seg)
		for slot, c := range seg {
			cols[c] = a.RowPtr[bi] + int32(slot)
		}
	}
	for k := range src.Val {
		r, c := src.RowIdx[k], src.ColIdx[k]
		bi := int(r) / br
		slot := blockCols[bi][c/int32(bc)]
		rr := int(r) - bi*br
		cc := int(c) - int(c/int32(bc))*bc
		a.Val[int(slot)*br*bc+rr*bc+cc] += src.Val[k]
	}
	return a, nil
}

func insertionSort(v []int32) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

// NNZ reports the logical nonzeros (fill excluded).
func (a *Matrix) NNZ() int { return a.nnz }

// Blocks reports the stored block count.
func (a *Matrix) Blocks() int { return len(a.ColIdx) }

// FillRatio reports stored values per logical nonzero (1.0 = no fill).
func (a *Matrix) FillRatio() float64 {
	if a.nnz == 0 {
		return 1
	}
	return float64(len(a.Val)) / float64(a.nnz)
}

// Bytes reports the in-memory size: 8 per stored value (fill included),
// 4 per block column index, 4 per block-row pointer.
func (a *Matrix) Bytes() int64 {
	return int64(8*len(a.Val)) + int64(4*len(a.ColIdx)) + int64(4*len(a.RowPtr))
}

// MulVec computes y = A·x serially.
func (a *Matrix) MulVec(x, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("bcsr: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			a.Rows, a.Cols, len(x), len(y)))
	}
	copy(a.xbuf, x)
	a.mulRange(a.xbuf, a.ybuf, 0, int32(a.BlockRows))
	copy(y, a.ybuf[:a.Rows])
}

// mulRange processes block rows [lo, hi) over padded vectors.
func (a *Matrix) mulRange(xp, yp []float64, lo, hi int32) {
	br, bc := a.BR, a.BC
	for bi := lo; bi < hi; bi++ {
		y0 := int(bi) * br
		for rr := 0; rr < br; rr++ {
			yp[y0+rr] = 0
		}
		for j := a.RowPtr[bi]; j < a.RowPtr[bi+1]; j++ {
			x0 := int(a.ColIdx[j]) * bc
			v := a.Val[int(j)*br*bc:]
			for rr := 0; rr < br; rr++ {
				sum := 0.0
				for cc := 0; cc < bc; cc++ {
					sum += v[rr*bc+cc] * xp[x0+cc]
				}
				yp[y0+rr] += sum
			}
		}
	}
}

// Parallel wraps a Matrix with a block-count-balanced block-row partition.
// Block rows are disjoint across threads, so the operation is one compute
// phase over the padded operand copies xp/yp, built once.
type Parallel struct {
	A    *Matrix
	Part *partition.RowPartition
	pool *parallel.Pool
	xp   []float64
	yp   []float64
	list parallel.PhaseList
}

// metrics files BCSR products under the SpM×V metric families.
var metrics = parallel.NewOpMetrics("symspmv_spmv", "bcsr")

// NewParallel prepares the multithreaded kernel (one partition per worker).
func NewParallel(a *Matrix, pool *parallel.Pool) *Parallel {
	p := &Parallel{
		A:    a,
		Part: partition.ByNNZ(a.RowPtr, pool.Size()),
		pool: pool,
		xp:   make([]float64, len(a.xbuf)),
		yp:   make([]float64, len(a.ybuf)),
	}
	p.list = parallel.PhaseList{Metrics: metrics, Phases: []parallel.Phase{
		parallel.ComputePhase("bcsr/multiply", func(tid int) {
			p.A.mulRange(p.xp, p.yp, p.Part.Start[tid], p.Part.End[tid])
		})}}
	return p
}

// MulVec computes y = A·x in parallel.
func (p *Parallel) MulVec(x, y []float64) {
	if len(x) != p.A.Cols || len(y) != p.A.Rows {
		panic(fmt.Sprintf("bcsr: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			p.A.Rows, p.A.Cols, len(x), len(y)))
	}
	copy(p.xp, x)
	p.pool.RunPhaseList(&p.list)
	copy(y, p.yp[:p.A.Rows])
}

// AutoTune picks the block shape minimizing the encoded size over candidate
// register-block shapes (the OSKI heuristic with an exact fill count).
func AutoTune(m *matrix.COO, candidates [][2]int) (br, bc int, err error) {
	if len(candidates) == 0 {
		candidates = [][2]int{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {6, 6}, {2, 1}, {1, 2}, {4, 2}, {2, 4}}
	}
	best := int64(1) << 62
	for _, cand := range candidates {
		a, e := FromCOO(m, cand[0], cand[1])
		if e != nil {
			return 0, 0, e
		}
		if b := a.Bytes(); b < best {
			best, br, bc = b, cand[0], cand[1]
		}
	}
	return br, bc, nil
}
