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
// types with a specialized inner loop per pattern (the JIT substitute).
// y rows [StartRow, EndRow) must be zeroed by the caller; all unit writes
// accumulate, and cross-row units never leave the blob's row range.
func mulBlob(b *Blob, x, y []float64) {
	ctl := b.Ctl
	vals := b.Vals
	row := b.StartRow - 1
	col := int32(0)
	pos := 0
	i := 0
	for i < len(ctl) {
		flags := ctl[i]
		size := int(ctl[i+1])
		i += 2
		if flags&flagNR != 0 {
			if flags&flagRJMP != 0 {
				jump, n := readUvarint(ctl, i)
				i += n
				row += int32(jump) + 1
			} else {
				row++
			}
			col = 0
		}
		d, n := readUvarint(ctl, i)
		i += n
		col += int32(d)

		switch Pattern(flags & patternMask) {
		case Delta8:
			sum := vals[pos] * x[col]
			for k := 1; k < size; k++ {
				col += int32(ctl[i])
				i++
				sum += vals[pos+k] * x[col]
			}
			y[row] += sum
			pos += size
		case Delta16:
			sum := vals[pos] * x[col]
			for k := 1; k < size; k++ {
				col += int32(uint32(ctl[i]) | uint32(ctl[i+1])<<8)
				i += 2
				sum += vals[pos+k] * x[col]
			}
			y[row] += sum
			pos += size
		case Delta32:
			sum := vals[pos] * x[col]
			for k := 1; k < size; k++ {
				col += int32(uint32(ctl[i]) | uint32(ctl[i+1])<<8 | uint32(ctl[i+2])<<16 | uint32(ctl[i+3])<<24)
				i += 4
				sum += vals[pos+k] * x[col]
			}
			y[row] += sum
			pos += size
		case Horizontal:
			sum := 0.0
			for k := 0; k < size; k++ {
				sum += vals[pos+k] * x[col+int32(k)]
			}
			y[row] += sum
			pos += size
			col += int32(size) - 1
		case Vertical:
			xv := x[col]
			for k := 0; k < size; k++ {
				y[row+int32(k)] += vals[pos+k] * xv
			}
			pos += size
		case Diagonal:
			for k := 0; k < size; k++ {
				y[row+int32(k)] += vals[pos+k] * x[col+int32(k)]
			}
			pos += size
		case AntiDiagonal:
			for k := 0; k < size; k++ {
				y[row+int32(k)] += vals[pos+k] * x[col-int32(k)]
			}
			pos += size
		case Block2:
			w := size / 2
			for rr := 0; rr < 2; rr++ {
				sum := 0.0
				for k := 0; k < w; k++ {
					sum += vals[pos] * x[col+int32(k)]
					pos++
				}
				y[row+int32(rr)] += sum
			}
			col += int32(w) - 1
		case Block3:
			w := size / 3
			for rr := 0; rr < 3; rr++ {
				sum := 0.0
				for k := 0; k < w; k++ {
					sum += vals[pos] * x[col+int32(k)]
					pos++
				}
				y[row+int32(rr)] += sum
			}
			col += int32(w) - 1
		default:
			panic(fmt.Sprintf("csx: unknown pattern %d in ctl stream", flags&patternMask))
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
