// Package csr implements the Compressed Sparse Row storage format and its
// serial and multithreaded SpM×V kernels — the unsymmetric baseline every
// optimization in the paper is measured against.
package csr

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// Matrix is a sparse matrix in CSR form: Val holds the nonzero values in
// row-major order, ColIdx the matching column indices, and RowPtr[r] the
// offset of the first element of row r (RowPtr has length Rows+1).
type Matrix struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Val        []float64
}

// FromCOO builds a CSR matrix. Symmetric (lower-stored) input is expanded to
// a full general matrix first, because CSR is an unsymmetric format: this is
// exactly the redundancy the paper's symmetric formats remove.
func FromCOO(m *matrix.COO) *Matrix {
	src := m
	if m.Symmetric {
		src = m.ToGeneral()
	} else if !m.IsNormalized() {
		src = m.Clone().Normalize()
	}
	out := &Matrix{
		Rows:   src.Rows,
		Cols:   src.Cols,
		RowPtr: make([]int32, src.Rows+1),
		ColIdx: make([]int32, src.NNZ()),
		Val:    make([]float64, src.NNZ()),
	}
	for k := range src.Val {
		out.RowPtr[src.RowIdx[k]+1]++
	}
	for r := 0; r < src.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	copy(out.ColIdx, src.ColIdx)
	copy(out.Val, src.Val)
	return out
}

// NNZ reports the stored nonzero count.
func (a *Matrix) NNZ() int { return len(a.Val) }

// Bytes reports the in-memory size per the paper's Eq. (1):
// 12·NNZ + 4·(N+1) with 8-byte values and 4-byte indices.
func (a *Matrix) Bytes() int64 {
	return int64(8*len(a.Val)) + int64(4*len(a.ColIdx)) + int64(4*len(a.RowPtr))
}

// RowNNZ reports the stored nonzeros of row r.
func (a *Matrix) RowNNZ(r int) int { return int(a.RowPtr[r+1] - a.RowPtr[r]) }

// MulVec computes y = A·x serially.
func (a *Matrix) MulVec(x, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("csr: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			a.Rows, a.Cols, len(x), len(y)))
	}
	mulRange(a, x, y, 0, int32(a.Rows))
}

// rowPtrOverrun is the message of the per-row check of mulRange and
// mulMatRange; FromCOO never builds a matrix that fails it.
func rowPtrOverrun(r int, jhi uint, stored int) string {
	return fmt.Sprintf("csr: row %d: RowPtr[r+1] = %d runs past the %d stored elements", r, jhi, stored)
}

// mulRange is the row loop in the shape of the symmetric kernel's template
// (internal/core/gen), so that symmetric-over-CSR ratios compare tuned
// against tuned: the slices leave a once per call, one running j is carried
// across rows, and one check per row (a row ends inside the arrays) leaves the
// gather x[colIdx[j]] the only checked index of the inner loop.
func mulRange(a *Matrix, x, y []float64, lo, hi int32) {
	rowPtr := a.RowPtr
	colIdx := a.ColIdx
	val := a.Val[:len(colIdx)]
	j := uint(rowPtr[lo])
	for r := int(lo); r < int(hi); r++ {
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r, jhi, len(colIdx)))
		}
		sum := 0.0
		for ; j < jhi; j++ {
			sum += val[j] * x[colIdx[j]]
		}
		y[r] = sum
	}
}

// MulMat computes Y = A·X serially for nv interleaved vectors
// (x[i*nv+v] is component v of row i).
func (a *Matrix) MulMat(x, y []float64, nv int) {
	if nv < 1 || len(x) != a.Cols*nv || len(y) != a.Rows*nv {
		panic(fmt.Sprintf("csr: MulMat dims: A is %dx%d, nv=%d, len(x)=%d, len(y)=%d",
			a.Rows, a.Cols, nv, len(x), len(y)))
	}
	mulMatRange(a, x, y, nv, 0, int32(a.Rows))
}

func mulMatRange(a *Matrix, x, y []float64, nv int, lo, hi int32) {
	rowPtr := a.RowPtr
	colIdx := a.ColIdx
	val := a.Val[:len(colIdx)]
	j := uint(rowPtr[lo])
	for r := int(lo); r < int(hi); r++ {
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r, jhi, len(colIdx)))
		}
		ri := r * nv
		yr := y[ri : ri+nv : ri+nv]
		for v := range yr {
			yr[v] = 0
		}
		for ; j < jhi; j++ {
			ci := int(colIdx[j]) * nv
			av := val[j]
			xc := x[ci : ci+nv : ci+nv]
			for v := range xc {
				yr[v] += av * xc[v]
			}
		}
	}
}

// Parallel wraps a Matrix with an nnz-balanced row partition and a worker
// pool for multithreaded y = A·x. CSR needs no reduction phase: output rows
// are disjoint across threads, so each operation is one compute phase, built
// once over the operand slots x, y and nv.
type Parallel struct {
	A    *Matrix
	Part *partition.RowPartition
	pool *parallel.Pool

	x, y     []float64
	nv       int
	vec, mat parallel.PhaseList
}

// CSR products are filed under the SpM×V and SpMM metric families.
var (
	vecMetrics = parallel.NewOpMetrics("symspmv_spmv", "csr")
	matMetrics = parallel.NewOpMetrics("symspmv_spmm", "csr")
)

// NewParallel prepares a multithreaded kernel over pool (one partition per
// worker).
func NewParallel(a *Matrix, pool *parallel.Pool) *Parallel {
	p := &Parallel{
		A:    a,
		Part: partition.ByNNZ(a.RowPtr, pool.Size()),
		pool: pool,
	}
	p.vec = parallel.PhaseList{Metrics: vecMetrics, Phases: []parallel.Phase{
		parallel.ComputePhase("csr/multiply", func(tid int) {
			mulRange(p.A, p.x, p.y, p.Part.Start[tid], p.Part.End[tid])
		})}}
	p.mat = parallel.PhaseList{Metrics: matMetrics, Phases: []parallel.Phase{
		parallel.ComputePhase("csr-spmm/multiply", func(tid int) {
			mulMatRange(p.A, p.x, p.y, p.nv, p.Part.Start[tid], p.Part.End[tid])
		})}}
	return p
}

// MulVec computes y = A·x with one goroutine per partition.
func (p *Parallel) MulVec(x, y []float64) {
	if len(x) != p.A.Cols || len(y) != p.A.Rows {
		panic(fmt.Sprintf("csr: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			p.A.Rows, p.A.Cols, len(x), len(y)))
	}
	p.run(&p.vec, x, y, 1)
}

// MulMat computes Y = A·X for nv interleaved vectors, one goroutine per
// partition (rows are disjoint, so no reduction is needed).
func (p *Parallel) MulMat(x, y []float64, nv int) {
	if nv < 1 || len(x) != p.A.Cols*nv || len(y) != p.A.Rows*nv {
		panic(fmt.Sprintf("csr: MulMat dims: A is %dx%d, nv=%d, len(x)=%d, len(y)=%d",
			p.A.Rows, p.A.Cols, nv, len(x), len(y)))
	}
	p.run(&p.mat, x, y, nv)
}

func (p *Parallel) run(l *parallel.PhaseList, x, y []float64, nv int) {
	p.x, p.y, p.nv = x, y, nv
	p.pool.RunPhaseList(l)
	p.x, p.y = nil, nil
}
