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

// MulVecSerial computes y = A·x on the calling goroutine (requires a
// single-blob matrix).
func (mx *Matrix) MulVecSerial(x, y []float64) {
	if len(mx.Blobs) != 1 {
		panic("csx: MulVecSerial on multi-blob matrix")
	}
	for i := range y {
		y[i] = 0
	}
	mulBlob(mx.Blobs[0], x, y)
}

// mulBlob is the unsymmetric decode-multiply kernel: a dispatch over unit
// types with a specialized inner loop per pattern (the JIT substitute), built
// like mulBlobSym's (DESIGN.md §17.2): windows cut once per unit, blocks read
// column by column with one accumulator per block row. y rows [StartRow,
// EndRow) must be zeroed by the caller; all unit writes accumulate, and
// cross-row units never leave the blob's row range.
func mulBlob(b *Blob, x, y []float64) {
	// As in mulBlobSym: windows are checked against the length.
	ctl, vals := b.Ctl, b.Vals[:len(b.Vals):len(b.Vals)]
	x, y = x[:len(x):len(x)], y[:len(y):len(y)]
	row, col := int(b.StartRow)-1, 0
	for i := 0; i < len(ctl); {
		flags, size := ctl[i], int(ctl[i+1])
		i += 2
		if flags&flagNR != 0 {
			row++
			if flags&flagRJMP != 0 {
				jump, n := readUvarint(ctl, i)
				i += n
				row += int(jump)
			}
			col = 0
		}
		d, n := readUvarint(ctl, i)
		i += n
		col += int(d)
		vv := vals[:size]
		vals = vals[size:]

		switch pat := Pattern(flags & patternMask); pat {
		case Delta8:
			sum := vv[0] * x[col] // gather
			for _, v := range vv[1:] {
				col += int(ctl[i]) // delta
				i++
				sum += v * x[col] // gather
			}
			y[row] += sum
		case Delta16:
			sum := vv[0] * x[col] // gather
			for _, v := range vv[1:] {
				col += int(ctl[i]) | int(ctl[i+1])<<8 // delta
				i += 2
				sum += v * x[col] // gather
			}
			y[row] += sum
		case Delta32:
			sum := vv[0] * x[col] // gather
			for _, v := range vv[1:] {
				col += int(ctl[i]) | int(ctl[i+1])<<8 | int(ctl[i+2])<<16 | int(ctl[i+3])<<24 // delta
				i += 4
				sum += v * x[col] // gather
			}
			y[row] += sum
		case Horizontal:
			xw := x[col:][:size]
			sum := 0.0
			for k, v := range vv {
				sum += v * xw[k]
			}
			y[row] += sum
			col += size - 1
		case Vertical:
			xv, yw := x[col], y[row:][:size]
			for k, v := range vv {
				yw[k] += v * xv
			}
		case Diagonal:
			xw, yw := x[col:][:size], y[row:][:size]
			for k, v := range vv {
				yw[k] += v * xw[k]
			}
		case AntiDiagonal:
			for k, v := range vv {
				y[row+k] += v * x[col-k]
			}
		case Block2:
			w := size / 2
			a0, a1, yw := vv[:w], vv[w:][:w], (*[2]float64)(y[row:])
			s0, s1 := 0.0, 0.0
			for k, xc := range x[col:][:w] {
				s0 += a0[k] * xc
				s1 += a1[k] * xc
			}
			yw[0] += s0
			yw[1] += s1
			col += w - 1
		case Block3:
			w := size / 3
			yw := (*[3]float64)(y[row:])
			s0, s1, s2 := 0.0, 0.0, 0.0
			a0, a1, a2 := vv[:w], vv[w:][:w], vv[2*w:][:w]
			for k, xc := range x[col:][:w] {
				s0 += a0[k] * xc
				s1 += a1[k] * xc
				s2 += a2[k] * xc
			}
			yw[0] += s0
			yw[1] += s1
			yw[2] += s2
			col += w - 1
		default:
			panic(fmt.Sprintf("csx: unknown pattern %d in ctl stream", pat))
		}
	}
}

// readUvarint decodes a LEB128 value at ctl[i:]; hot-path variant returning
// byte count.
func readUvarint(ctl []byte, i int) (uint32, int) {
	c := ctl[i]
	if c < 0x80 {
		return uint32(c), 1
	}
	var v uint32
	var shift uint
	n := 0
	for {
		c = ctl[i+n]
		v |= uint32(c&0x7f) << shift
		n++
		if c < 0x80 {
			return v, n
		}
		shift += 7
	}
}
