package csx

import "slices"

// Strips: the rows of a fundamental supernode (each row is the row above it
// plus, in lower storage, that row's own column) share every column left of
// the supernode, so two or three of them encode as one unit — a strip, whose
// runs are its first row's dense column runs and which its diagonal triangle
// closes. Whether a row continues a supernode depends on it and the row above
// alone, so a row range that starts anywhere, or writes behind any boundary,
// finds the strips of the whole matrix from its first supernode on.

// stripRun is one run of a strip: columns [col, col+w) of every strip row.
type stripRun struct{ col, w int32 }

// continues reports whether row r extends the supernode of row r-1: its
// columns are row r-1's, followed in CSX-Sym by column r-1.
func (d *detector) continues(r int32) bool {
	el := d.el
	lo0, hi0 := el.rowSpan(r - 1)
	lo1, hi1 := el.rowSpan(r)
	n := hi0 - lo0
	if d.symBoundary >= 0 {
		if hi1-lo1 != n+1 || el.cols[hi1-1] != r-1 {
			return false
		}
	} else if hi1-lo1 != n || n == 0 {
		return false
	}
	return slices.Equal(el.cols[lo0:hi0], el.cols[lo1:lo1+n])
}

// detectStrips cuts every supernode of two or more rows into strips from its
// first row down: three rows each, and two for the last two or four.
func (d *detector) detectStrips() {
	end := d.el.baseRow + d.el.nRows
	for g0 := d.el.baseRow; g0 < end; {
		g1 := g0 + 1
		for g1 < end && d.continues(g1) {
			g1++
		}
		for r := g0; g1-r >= 2; {
			h := int32(3)
			if n := g1 - r; n == 2 || n == 4 {
				h = 2
			}
			d.claimStrip(r, h)
			r += h
		}
		g0 = g1
	}
}

// claimStrip claims rows [r0, r0+h) of a supernode as one strip: the runs of
// row r0, cut at the CSX-Sym boundary and at maxUnitSize columns, and in
// CSX-Sym the triangle. A strip of more than maxUnitSize runs is left to the
// other passes.
func (d *detector) claimStrip(r0, h int32) {
	el := d.el
	lo, hi := el.rowSpan(r0)
	first := len(d.stripRuns)
	for i := lo; i < hi; {
		j := i + 1
		for j < hi && el.cols[j] == el.cols[j-1]+1 && el.cols[j] != d.symBoundary && j-i < maxUnitSize {
			j++
		}
		d.stripRuns = append(d.stripRuns, stripRun{el.cols[i], j - i})
		i = j
	}
	runs := d.stripRuns[first:len(d.stripRuns):len(d.stripRuns)]
	if len(runs) > maxUnitSize {
		d.stripRuns = d.stripRuns[:first]
		return
	}
	start := len(d.arena)
	off := int32(0) // the run's first element within its row
	for _, run := range runs {
		for k := int32(0); k < h; k++ {
			base := el.rowPtr[r0+k-el.baseRow] + off
			for j := int32(0); j < run.w; j++ {
				d.arena = append(d.arena, base+j)
			}
		}
		off += run.w
	}
	tri := d.symBoundary >= 0
	for k := int32(1); tri && k < h; k++ { // row r0+k's last k columns: r0 … r0+k-1
		base := el.rowPtr[r0+k-el.baseRow] + off
		for j := int32(0); j < k; j++ {
			d.arena = append(d.arena, base+j)
		}
	}
	u := d.addUnit(Strip2+Pattern(h-2), start)
	u.row, u.col, u.runs, u.tri = r0, r0, runs, tri
	if len(runs) > 0 {
		u.col = runs[0].col
	}
}
