package csx

// Block detection: dense 2×w and 3×w blocks assembled from column-aligned
// horizontal runs on consecutive rows. FEM/structural matrices consist of
// dense b×b node-coupling blocks, and encoding them two- or three-rows-deep
// removes even the per-row unit heads that plain horizontal encoding keeps.

// hrun is a maximal run of consecutive-column unassigned elements in one row.
type hrun struct {
	col0 int32 // first column
	idx0 int32 // element index of first element (row-major ⇒ consecutive)
	w    int32 // width
}

// rowRuns lists the maximal unassigned horizontal runs of row r that are at
// least minW columns wide.
func (d *detector) rowRuns(r, minW int32, buf []hrun) []hrun {
	buf = buf[:0]
	el := d.el
	lo, hi := el.rowSpan(r)
	i := lo
	for i < hi {
		for i < hi && d.owner[i] != unassigned {
			i++
		}
		if i >= hi {
			break
		}
		j := i + 1
		for j < hi && d.owner[j] == unassigned && el.cols[j] == el.cols[j-1]+1 {
			j++
		}
		if j-i >= minW {
			buf = append(buf, hrun{col0: el.cols[i], idx0: i, w: j - i})
		}
		i = j
	}
	return buf
}

// intersect returns the overlap [c0, c0+w) of two runs (w ≤ 0 when disjoint).
func intersect(a, b hrun) (c0, w int32) {
	lo := max(a.col0, b.col0)
	hi := min(a.col0+a.w, b.col0+b.w)
	return lo, hi - lo
}

// detectBlocks claims 3-row, then 2-row dense blocks anchored at each row in
// top-down order, in two sweeps: the first takes only overlaps at least 3
// columns wide, the second the 2-column ones that are left, so that a narrow
// overlap met first never splinters a wide block into 2-column slivers. A
// block must not straddle the CSX-Sym write boundary.
func (d *detector) detectBlocks() {
	el := d.el
	// A row has at most as many runs as elements: size the buffers once.
	longest := int32(0)
	for i := range el.nRows {
		longest = max(longest, el.rowPtr[i+1]-el.rowPtr[i])
	}
	bufA, bufB, bufC := make([]hrun, 0, longest), make([]hrun, 0, longest), make([]hrun, 0, longest)
	for _, minW := range [...]int32{3, 2} {
		for r := el.baseRow; r < el.baseRow+el.nRows; r++ {
			bufA = d.rowRuns(r, minW, bufA)
			if len(bufA) == 0 {
				continue
			}
			var runsB, runsC []hrun
			if r+1 < el.baseRow+el.nRows {
				bufB = d.rowRuns(r+1, minW, bufB)
				runsB = bufB
			}
			if r+2 < el.baseRow+el.nRows {
				bufC = d.rowRuns(r+2, minW, bufC)
				runsC = bufC
			}
			for _, ra := range bufA {
				// Every overlap with a run of row r+1, deepened to 3 rows
				// by the widest overlap with a run of row r+2.
				for _, rb := range runsB {
					c0, w := intersect(ra, rb)
					if w < minW {
						continue
					}
					var rcBest hrun
					var c03, w3 int32
					for _, rc := range runsC {
						cc, wc := intersect(hrun{col0: c0, w: w}, rc)
						if wc >= minW && wc > w3 {
							rcBest, c03, w3 = rc, cc, wc
						}
					}
					if w3 >= minW {
						d.claimBlock(Block3, c03, w3, [3]hrun{ra, rb, rcBest})
					} else {
						d.claimBlock(Block2, c0, w, [3]hrun{ra, rb, {}})
					}
				}
			}
		}
	}
}

// claimBlock claims the elements of a dense block anchored at column c0 of
// runs[0]'s row with width w, spanning 2 or 3 rows, splitting over-wide blocks
// at the size cap.
// Each per-row run is known to cover [c0, c0+w) with consecutive row-major
// elements, so element indices are computed by offset.
func (d *detector) claimBlock(pat Pattern, c0, w int32, runs [3]hrun) {
	if !d.legal(c0, c0+w-1) {
		return
	}
	depth := int32(2)
	if pat == Block3 {
		depth = 3
	}
	// Re-check every element is still unassigned (earlier blocks of this
	// same sweep may have claimed parts of the fresher rows' runs).
	base := [3]int32{}
	for k := int32(0); k < depth; k++ {
		base[k] = runs[k].idx0 + (c0 - runs[k].col0)
		for j := int32(0); j < w; j++ {
			if d.owner[base[k]+j] != unassigned {
				return
			}
		}
	}
	maxW := int32(maxUnitSize) / depth
	for off := int32(0); off < w; off += maxW {
		ww := min(maxW, w-off)
		if ww < 2 {
			break
		}
		start := len(d.arena)
		for k := int32(0); k < depth; k++ {
			for j := int32(0); j < ww; j++ {
				d.arena = append(d.arena, base[k]+off+j)
			}
		}
		d.addUnit(pat, ww, start)
	}
}
