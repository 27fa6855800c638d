package csx

import "fmt"

// ctlWriter assembles a ctl byte stream. It tracks the decoder-visible
// cursor (current row, current column) so callers only supply absolute unit
// anchors.
type ctlWriter struct {
	buf []byte
	row int32 // last emitted row; decoder starts at startRow-1
	col int32 // column cursor within the current row
}

func newCtlWriter(startRow int32) *ctlWriter {
	return &ctlWriter{row: startRow - 1, col: 0}
}

// putUvarint appends v in LEB128.
func (w *ctlWriter) putUvarint(v uint32) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

// beginUnit emits the head of a unit: flags, size, optional row jump and the
// column delta. anchorRow/anchorCol locate the unit's first element; size is
// the element count; endCol is the column of the unit's last element on the
// anchor row (the decoder's column cursor after the unit).
func (w *ctlWriter) beginUnit(p Pattern, size int, anchorRow, anchorCol, endCol int32) {
	if size < 1 || size > maxUnitSize {
		panic(fmt.Sprintf("csx: unit size %d out of [1,%d]", size, maxUnitSize))
	}
	w.head(byte(p), size, anchorRow)
	w.column(anchorCol, endCol)
}

// strip emits a strip: its head (the run count as second byte), then each
// run's column delta and width.
func (w *ctlWriter) strip(p Pattern, row int32, runs []stripRun, tri bool) {
	flags := byte(p)
	if tri {
		flags |= flagTri
	}
	w.head(flags, len(runs), row)
	for _, r := range runs {
		w.column(r.col, r.col+r.w-1)
		w.buf = append(w.buf, byte(r.w))
	}
}

// head emits flags and the second head byte, with NR and the row jump that
// take the cursor to row.
func (w *ctlWriter) head(flags byte, second int, row int32) {
	var rjmp uint32
	if row != w.row {
		if row < w.row {
			panic(fmt.Sprintf("csx: unit anchor row %d before cursor row %d", row, w.row))
		}
		flags |= flagNR
		if d := row - w.row; d > 1 {
			flags |= flagRJMP
			rjmp = uint32(d - 1)
		}
		w.col = 0
	}
	w.buf = append(w.buf, flags, byte(second))
	if flags&flagRJMP != 0 {
		w.putUvarint(rjmp)
	}
	w.row = row
}

// column emits the delta from the column cursor to col and leaves the cursor
// on endCol.
func (w *ctlWriter) column(col, endCol int32) {
	if col < w.col {
		panic(fmt.Sprintf("csx: unit anchor col %d before cursor col %d (row %d)", col, w.col, w.row))
	}
	w.putUvarint(uint32(col - w.col))
	w.col = endCol
}

// putDelta8/16/32 append one body delta of the given width.
func (w *ctlWriter) putDelta8(d uint32)  { w.buf = append(w.buf, byte(d)) }
func (w *ctlWriter) putDelta16(d uint32) { w.buf = append(w.buf, byte(d), byte(d>>8)) }
func (w *ctlWriter) putDelta32(d uint32) {
	w.buf = append(w.buf, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
}

// uvarint decodes a LEB128 value from b, returning the value and the number
// of bytes consumed. n == 0 reports a truncated or oversized (> 32-bit)
// varint: ctl bytes reach this decoder from disk via ReadSymMatrix, so a
// malformed stream must surface as a checkable condition, not a panic — the
// caller turns it into a validation error. The hot multiply kernels use the
// manually inlined readUvarint instead, which may assume validated input.
func uvarint(b []byte) (uint32, int) {
	var v uint32
	var shift uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		v |= uint32(c&0x7f) << shift
		if c < 0x80 {
			return v, i + 1
		}
		shift += 7
		if shift > 28 {
			break
		}
	}
	return 0, 0 // truncated or oversized
}
