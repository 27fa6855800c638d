package csx

// Blob is the encoded form of one thread's row range: the ctl byte stream
// plus the values arranged in unit order. A serial matrix has one Blob.
type Blob struct {
	StartRow, EndRow int32 // [StartRow, EndRow)
	Ctl              []byte
	Vals             []float64
	NNZ              int

	// UnitCount histograms the encoded units per pattern; DeltaElems counts
	// elements that fell back to delta units (the compression diagnostics of
	// Table I).
	UnitCount  [numPatterns]int64
	DeltaElems int64
}

// Bytes reports the encoded size of the blob (ctl + 8-byte values).
func (b *Blob) Bytes() int64 { return int64(len(b.Ctl)) + int64(8*len(b.Vals)) }

// encodeRange detects substructures and encodes rows [startRow, endRow) of
// the element set. vals[i] is the value of element i. symBoundary < 0
// encodes plain CSX; otherwise the CSX-Sym legality rule applies and delta
// units are split at the boundary.
func encodeRange(el *elements, vals []float64, opts Options, symBoundary int32) *Blob {
	det := newDetector(el, opts, symBoundary)
	det.detect(det.detectStrips)
	return det.encode(vals)
}

// encode writes the detected units and the leftover elements as delta units.
func (d *detector) encode(vals []float64) *Blob {
	el, symBoundary := d.el, d.symBoundary
	b := &Blob{
		StartRow: el.baseRow,
		EndRow:   el.baseRow + el.nRows,
		NNZ:      el.len(),
		Vals:     make([]float64, 0, el.len()),
	}
	w := newCtlWriter(el.baseRow)

	// Units are sorted by anchor (row, col). Walk rows; merge pattern units
	// anchored in the row with delta chunks built from leftover elements.
	ui := 0
	units := d.units
	var leftovers []int32 // reused across rows
	for r := el.baseRow; r < b.EndRow; r++ {
		lo, hi := el.rowSpan(r)
		// Pattern units anchored at this row.
		uEnd := ui
		for uEnd < len(units) && units[uEnd].row == r {
			uEnd++
		}
		rowUnits := units[ui:uEnd]
		ui = uEnd
		if lo == hi && len(rowUnits) == 0 {
			continue
		}

		// Leftover (delta) elements of this row, ascending column. Row-major
		// input keeps them sorted already.
		leftovers = leftovers[:0]
		for i := lo; i < hi; i++ {
			if d.owner[i] == unassigned {
				leftovers = append(leftovers, i)
			}
		}
		if len(leftovers) == 0 && len(rowUnits) == 0 {
			continue
		}
		emitRow(w, b, el, vals, r, rowUnits, leftovers, symBoundary)
	}
	b.Ctl = w.buf
	return b
}

// emitRow writes all units of one row in ascending column order: pattern
// units interleaved with delta chunks cut at pattern-unit anchors, the
// CSX-Sym boundary, width changes beyond a chunk's reach, and the size cap.
func emitRow(w *ctlWriter, b *Blob, el *elements, vals []float64, r int32, rowUnits []unit, leftovers []int32, symBoundary int32) {
	// rowUnits are column-disjoint (each element has one owner) and arrive in
	// column order: detect leaves the units sorted by (row, col).
	li := 0
	for ki := range rowUnits {
		u := &rowUnits[ki]
		start := li // the leftovers left of the unit's anchor
		for li < len(leftovers) && el.cols[leftovers[li]] < u.col {
			li++
		}
		emitDeltas(w, b, el, vals, r, leftovers[start:li], symBoundary)
		emitPattern(w, b, el, vals, u)
	}
	emitDeltas(w, b, el, vals, r, leftovers[li:], symBoundary) // the rest of the row, whatever its columns
}

// emitPattern writes one substructure unit.
func emitPattern(w *ctlWriter, b *Blob, el *elements, vals []float64, u *unit) {
	switch u.pat {
	case Strip2, Strip3:
		w.strip(u.pat, u.row, u.runs, u.tri)
	case Horizontal: // the cursor ends on the run's last column
		w.beginUnit(u.pat, len(u.elems), u.row, u.col, u.col+int32(len(u.elems))-1)
	default: // vertical and diagonal anchor one element per row
		w.beginUnit(u.pat, len(u.elems), u.row, u.col, u.col)
	}
	for _, i := range u.elems {
		b.Vals = append(b.Vals, vals[i])
	}
	b.UnitCount[u.pat]++
}

// emitDeltas writes a row's leftover elements as delta units. Chunks are cut
// at the CSX-Sym boundary (so a unit's writes are uniformly local or direct),
// at the size cap, and the delta width is the narrowest fitting the chunk.
func emitDeltas(w *ctlWriter, b *Blob, el *elements, vals []float64, r int32, elems []int32, symBoundary int32) {
	if len(elems) == 0 {
		return
	}
	// Split at the boundary: columns ascending, so a single cut suffices.
	if symBoundary >= 0 {
		cut := len(elems)
		for i, e := range elems {
			if el.cols[e] >= symBoundary {
				cut = i
				break
			}
		}
		if cut > 0 && cut < len(elems) {
			emitDeltas(w, b, el, vals, r, elems[:cut], -1)
			emitDeltas(w, b, el, vals, r, elems[cut:], -1)
			return
		}
	}
	for off := 0; off < len(elems); off += maxUnitSize {
		chunk := elems[off:min(off+maxUnitSize, len(elems))]
		// Narrowest width that fits every body delta of the chunk.
		var maxD int32
		for i := 1; i < len(chunk); i++ {
			maxD = max(maxD, el.cols[chunk[i]]-el.cols[chunk[i-1]])
		}
		pat := Delta8
		switch {
		case maxD > 0xffff:
			pat = Delta32
		case maxD > 0xff:
			pat = Delta16
		}
		anchorCol := el.cols[chunk[0]]
		endCol := el.cols[chunk[len(chunk)-1]]
		w.beginUnit(pat, len(chunk), r, anchorCol, endCol)
		for i := 1; i < len(chunk); i++ {
			d := uint32(el.cols[chunk[i]] - el.cols[chunk[i-1]])
			switch pat {
			case Delta8:
				w.putDelta8(d)
			case Delta16:
				w.putDelta16(d)
			default:
				w.putDelta32(d)
			}
		}
		for _, i := range chunk {
			b.Vals = append(b.Vals, vals[i])
		}
		b.UnitCount[pat]++
		b.DeltaElems += int64(len(chunk))
	}
}

// buildElements assembles the detector view for rows [startRow, endRow) of a
// CSR-layout structure (rowPtr over the whole matrix).
func buildElements(rowPtr, colIdx []int32, startRow, endRow int32) (*elements, int32, int32) {
	lo, hi := rowPtr[startRow], rowPtr[endRow]
	n := hi - lo
	el := &elements{
		rows:    make([]int32, n),
		cols:    colIdx[lo:hi],
		rowPtr:  make([]int32, endRow-startRow+1),
		baseRow: startRow,
		nRows:   endRow - startRow,
	}
	for r := startRow; r < endRow; r++ {
		el.rowPtr[r-startRow] = rowPtr[r] - lo
		for j := rowPtr[r]; j < rowPtr[r+1]; j++ {
			el.rows[j-lo] = r
		}
	}
	el.rowPtr[endRow-startRow] = n
	return el, lo, hi
}
