package csx

import (
	"cmp"
	"slices"
)

// elements is the detector's working view of one thread's row range: parallel
// row/col arrays in row-major order plus the per-row offsets.
type elements struct {
	rows []int32
	cols []int32
	// rowPtr[r-baseRow] .. rowPtr[r-baseRow+1] indexes the elements of row r.
	rowPtr  []int32
	baseRow int32
	nRows   int32
}

func (e *elements) len() int { return len(e.rows) }

func (e *elements) rowSpan(r int32) (lo, hi int32) {
	i := r - e.baseRow
	return e.rowPtr[i], e.rowPtr[i+1]
}

// unassigned marks elements not yet claimed by a substructure unit.
const unassigned = 0xff

// unit is one detected substructure occurrence, pre-encoding.
type unit struct {
	pat      Pattern
	row, col int32      // anchor (first element; a strip's first row)
	runs     []stripRun // a strip's runs
	tri      bool       // a strip closed by its triangle
	elems    []int32    // element indices in decode (value) order, in the arena
}

// detector runs substructure detection over one row range.
type detector struct {
	el    *elements
	opts  Options
	owner []uint8 // pattern per element, or unassigned

	// symBoundary, when ≥ 0, enables the CSX-Sym legality rule: a unit's
	// columns must be uniformly < symBoundary (local-vector writes) or
	// uniformly ≥ symBoundary (direct writes). Straddling candidates are
	// rejected, exactly as the paper prescribes (Fig. 8).
	symBoundary int32

	units []unit
	// arena holds the element lists of all units: an element is claimed at
	// most once, so it never outgrows its initial capacity. stripRuns holds
	// the strips' runs.
	arena     []int32
	stripRuns []stripRun

	// next and run are the scratch of runs: each element's successor, and
	// the run being handed out.
	next, run []int32

	// coverage statistics per direction from the sampling pass
	dirCoverage [numDirections]float64
}

func newDetector(el *elements, opts Options, symBoundary int32) *detector {
	d := &detector{
		el:          el,
		opts:        opts.withDefaults(),
		owner:       make([]uint8, el.len()),
		symBoundary: symBoundary,
		arena:       make([]int32, 0, el.len()),
		next:        make([]int32, el.len()),
		run:         make([]int32, 0, maxUnitSize),
	}
	for i := range d.owner {
		d.owner[i] = unassigned
	}
	return d
}

// legal applies the CSX-Sym boundary rule to a column interval.
func (d *detector) legal(minCol, maxCol int32) bool {
	if d.symBoundary < 0 {
		return true
	}
	return maxCol < d.symBoundary || minCol >= d.symBoundary
}

// detect runs the full pipeline: sampling statistics, direction selection,
// the strip pass blocks (d.detectStrips, or the tests' greedy block oracle),
// directional passes. After detect, d.units holds all pattern units and
// d.owner marks claimed elements; the rest become delta units at encode time.
func (d *detector) detect(blocks func()) {
	if d.el.len() == 0 {
		return
	}
	d.sampleStats()

	type scored struct {
		dir Direction
		cov float64
	}
	var enabled []scored
	for _, dir := range d.opts.Directions {
		if c := d.dirCoverage[dir]; c >= d.opts.MinCoverage {
			enabled = append(enabled, scored{dir, c})
		}
	}
	slices.SortFunc(enabled, func(a, b scored) int {
		return cmp.Or(cmp.Compare(b.cov, a.cov), cmp.Compare(a.dir, b.dir))
	})

	// Strips first: a strip covers strictly more than the horizontal runs
	// it is built from. Only worthwhile when horizontal structure exists at
	// all.
	if d.opts.EnableBlocks && d.dirCoverage[DirHorizontal] >= d.opts.MinCoverage {
		blocks()
	}
	for _, s := range enabled {
		d.assignDirection(s.dir)
	}
	d.sortUnits()
}

// sortUnits orders units by (anchor row, anchor col), the ctl emission order.
func (d *detector) sortUnits() {
	slices.SortFunc(d.units, func(a, b unit) int {
		return cmp.Or(cmp.Compare(a.row, b.row), cmp.Compare(a.col, b.col))
	})
}

// walked marks, in next, an element that runs has handed out in a run.
const walked = -2

// runs calls fn with every maximal run of unassigned elements of rows
// [rLo, rHi) in direction dir, in row-major order of the runs' first
// elements: consecutive columns of one row (horizontal), or (r, c), (r+1, c+s),
// (r+2, c+2s), … with shift s = 0, +1 (vertical, diagonal).
// A run lists its elements down the rows (along the row for horizontal): the
// runs, and their element order, are those of the elements sorted by line and
// position along the line. fn may claim the run's elements.
//
// One merge of each row with the next links every element to its successor,
// so the cost is linear in the elements of the rows, whatever their columns.
func (d *detector) runs(dir Direction, rLo, rHi int32, fn func(run []int32)) {
	el, next, owner := d.el, d.next, d.owner
	var s int32 // column step from an element to its successor: vertical
	if dir != DirVertical {
		s = 1
	}
	for r := rLo; r < rHi; r++ {
		lo, hi := el.rowSpan(r)
		// The successors' row: r itself for horizontal, none after the last.
		j, jHi := hi, hi
		switch {
		case dir == DirHorizontal:
			j = lo
		case r+1 < rHi:
			j, jHi = el.rowSpan(r + 1)
		}
		for i := lo; i < hi; i++ {
			if owner[i] != unassigned {
				continue
			}
			next[i] = -1
			want := el.cols[i] + s
			for j < jHi && el.cols[j] < want {
				j++
			}
			if j < jHi && el.cols[j] == want && owner[j] == unassigned {
				next[i] = j
			}
		}
	}
	lo, hi := el.rowPtr[rLo-el.baseRow], el.rowPtr[rHi-el.baseRow]
	for i := lo; i < hi; i++ {
		if owner[i] != unassigned || next[i] == walked {
			continue
		}
		run := d.run[:0]
		for k := i; k >= 0; {
			run = append(run, k)
			succ := next[k]
			next[k] = walked
			k = succ
		}
		d.run = run
		fn(run)
	}
}

// sampleStats estimates per-direction coverage on a row sample: the fraction
// of sampled elements that lie in runs of at least MinRunLength. This is the
// statistics pass that drives substructure-type selection (and keeps the
// preprocessing cost contained, §V-E). The sample is every k-th window of 64
// contiguous rows, k = 1/SampleFraction (one window when k reaches past the
// range); a run never leaves its window.
func (d *detector) sampleStats() {
	el := d.el
	rows := int(el.nRows)
	width, stride := 64, 64*int(min(1/d.opts.SampleFraction, float64(rows)))
	n := 0
	for lo := 0; lo < rows; lo += stride {
		n += int(el.rowPtr[min(lo+width, rows)] - el.rowPtr[lo])
	}
	// Degenerate sampling guard: matrices whose nonzeros concentrate in few
	// rows can slip between the sampled windows. If the sample covers far
	// less than the target fraction, fall back to exhaustive statistics —
	// such matrices are small or sparse enough for that to stay cheap. A
	// sample of every window is the whole range too.
	if target := int(d.opts.SampleFraction * float64(el.len()) / 4); n < target || n == 0 || stride == width {
		width, stride, n = rows, rows, el.len()
	}
	for _, dir := range d.opts.Directions {
		covered := 0
		for lo := 0; lo < rows; lo += stride {
			d.runs(dir, el.baseRow+int32(lo), el.baseRow+int32(min(lo+width, rows)), func(run []int32) {
				if len(run) >= d.opts.MinRunLength {
					covered += len(run)
				}
			})
		}
		d.dirCoverage[dir] = float64(covered) / float64(n)
	}
}

// assignDirection claims maximal unassigned runs of the direction as units.
func (d *detector) assignDirection(dir Direction) {
	pat := dir.pattern()
	d.runs(dir, d.el.baseRow, d.el.baseRow+d.el.nRows, func(run []int32) { d.claimSegment(pat, run) })
}

// claimSegment turns one unassigned geometric segment into units if it is
// long enough and legal, splitting at maxUnitSize.
func (d *detector) claimSegment(pat Pattern, seg []int32) {
	if len(seg) < d.opts.MinRunLength {
		return
	}
	el := d.el
	// CSX-Sym legality: reject the whole run if its columns straddle the
	// boundary (the paper does not split straddlers).
	minC, maxC := el.cols[seg[0]], el.cols[seg[0]]
	for _, i := range seg[1:] {
		if el.cols[i] < minC {
			minC = el.cols[i]
		}
		if el.cols[i] > maxC {
			maxC = el.cols[i]
		}
	}
	if !d.legal(minC, maxC) {
		return
	}
	for off := 0; off < len(seg); off += maxUnitSize {
		end := min(off+maxUnitSize, len(seg))
		if end-off < d.opts.MinRunLength {
			break // tail too short to stand alone as a pattern unit
		}
		start := len(d.arena)
		d.arena = append(d.arena, seg[off:end]...)
		d.addUnit(pat, start)
	}
}

// addUnit makes the elements appended to the arena since start one unit of
// pattern pat, anchored at the first of them, and claims them.
func (d *detector) addUnit(pat Pattern, start int) *unit {
	elems := d.arena[start:len(d.arena):len(d.arena)]
	for _, i := range elems {
		d.owner[i] = uint8(pat)
	}
	d.units = append(d.units, unit{pat: pat, row: d.el.rows[elems[0]], col: d.el.cols[elems[0]], elems: elems})
	return &d.units[len(d.units)-1]
}
