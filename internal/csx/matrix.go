package csx

import (
	"fmt"

	"repro/internal/csr"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// Matrix is an unsymmetric CSX matrix: per-thread encoded blobs over an
// nnz-balanced row partition (the paper builds one CSX stream per thread).
type Matrix struct {
	Rows, Cols int
	Blobs      []*Blob
	Part       *partition.RowPartition
	nnz        int

	// The one-phase operation, assembled on first use over the operand slots
	// curX/curY so a product allocates nothing.
	curX, curY []float64
	list       parallel.PhaseList
}

// NewMatrix encodes a COO matrix into CSX with p per-thread blobs.
// Symmetric lower-stored input is expanded to a full general matrix first —
// plain CSX, like CSR, is an unsymmetric format.
func NewMatrix(m *matrix.COO, p int, opts Options) *Matrix {
	a := csr.FromCOO(m) // reuses the CSR assembly for the row-major layout
	return fromCSRLayout(a.Rows, a.Cols, a.RowPtr, a.ColIdx, a.Val, p, opts)
}

func fromCSRLayout(rows, cols int, rowPtr, colIdx []int32, vals []float64, p int, opts Options) *Matrix {
	part := partition.ByNNZ(rowPtr, p)
	mx := &Matrix{
		Rows:  rows,
		Cols:  cols,
		Blobs: make([]*Blob, p),
		Part:  part,
		nnz:   len(vals),
	}
	// Encode every range in parallel: CSX preprocessing is multithreaded in
	// the paper as well.
	pool := parallel.NewPool(p)
	defer pool.Close()
	pool.Run(func(tid int) {
		el, lo, _ := buildElements(rowPtr, colIdx, part.Start[tid], part.End[tid])
		mx.Blobs[tid] = encodeRange(el, vals[lo:], opts, -1)
	})
	return mx
}

// NNZ reports the stored nonzeros.
func (mx *Matrix) NNZ() int { return mx.nnz }

// Bytes reports the encoded size: ctl streams plus 8-byte values.
func (mx *Matrix) Bytes() int64 {
	var sum int64
	for _, b := range mx.Blobs {
		sum += b.Bytes()
	}
	return sum
}

// CompressionRatio reports 1 − Bytes/CSRBytes against the CSR size of the
// same operator (Eq. 1).
func (mx *Matrix) CompressionRatio() float64 {
	csrBytes := int64(12*mx.nnz) + int64(4*(mx.Rows+1))
	return 1 - float64(mx.Bytes())/float64(csrBytes)
}

// matMetrics files CSX products under the SpM×V metric families.
var matMetrics = parallel.NewOpMetrics("symspmv_spmv", "csx")

// MulVec computes y = A·x on pool; pool.Size() must equal the blob count.
// Output rows are disjoint across blobs, so the operation is one compute
// phase, assembled on first use over the operand slots.
func (mx *Matrix) MulVec(pool *parallel.Pool, x, y []float64) {
	if pool.Size() != len(mx.Blobs) {
		panic(fmt.Sprintf("csx: pool size %d != blob count %d", pool.Size(), len(mx.Blobs)))
	}
	if len(x) != mx.Cols || len(y) != mx.Rows {
		panic(fmt.Sprintf("csx: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			mx.Rows, mx.Cols, len(x), len(y)))
	}
	if mx.list.Phases == nil {
		mx.list = parallel.PhaseList{Metrics: matMetrics, Phases: []parallel.Phase{
			parallel.ComputePhase("csx/multiply", func(tid int) {
				b := mx.Blobs[tid]
				clear(mx.curY[b.StartRow:b.EndRow])
				mulBlob(b, mx.curX, mx.curY)
			})}}
	}
	mx.curX, mx.curY = x, y
	pool.RunPhaseList(&mx.list)
	mx.curX, mx.curY = nil, nil
}

// readUvarint decodes a LEB128 value at ctl[i:], returning it and its byte
// count: the hot-path variant, small enough to inline into the kernels.
func readUvarint(ctl []byte, i int) (uint32, int) {
	var v uint32
	for n, shift := 0, uint(0); ; shift += 7 {
		c := ctl[i+n]
		v |= uint32(c&0x7f) << shift
		n++
		if c < 0x80 {
			return v, n
		}
	}
}
