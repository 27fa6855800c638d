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
	row, col int32   // anchor (first element)
	width    int32   // block width (Block2/Block3 only)
	elems    []int32 // element indices in decode (value) order
}

// endCol reports the column of the unit's last element on the anchor row.
func (u *unit) endCol() int32 {
	switch u.pat {
	case Horizontal:
		return u.col + int32(len(u.elems)) - 1
	case Block2, Block3:
		return u.col + u.width - 1
	default: // vertical, diagonal, anti-diagonal anchor one element per row
		return u.col
	}
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

	// coverage statistics per direction from the sampling pass
	dirCoverage [numDirections]float64
}

func newDetector(el *elements, opts Options, symBoundary int32) *detector {
	d := &detector{
		el:          el,
		opts:        opts.withDefaults(),
		owner:       make([]uint8, el.len()),
		symBoundary: symBoundary,
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
// block pass, directional passes. After detect, d.units holds all pattern
// units and d.owner marks claimed elements; the rest become delta units at
// encode time.
func (d *detector) detect() {
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

	// Blocks first: a dense 2-D block covers strictly more than the
	// horizontal runs it is built from. Only worthwhile when horizontal
	// structure exists at all.
	if d.opts.EnableBlocks && d.dirCoverage[DirHorizontal] >= d.opts.MinCoverage {
		d.detectBlocks()
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

// directionPerm returns element indices sorted so that runs of the direction
// are consecutive: key groups lines, pos orders along the line. Sorting is
// two stable counting-sort passes, O(nnz + range) — the preprocessing phase
// is dominated by these sorts, and comparator-based sorting here triples the
// §V-E cost.
func (d *detector) directionPerm(dir Direction) []int32 {
	el := d.el
	n := el.len()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if dir == DirHorizontal {
		return perm // row-major input is already (r asc, c asc)
	}
	key, pos := directionKeyPos(dir, el)
	perm = countingSortBy(perm, pos) // secondary key first (stable passes)
	perm = countingSortBy(perm, key)
	return perm
}

// countingSortBy stably sorts the indices by the int32 key function.
func countingSortBy(perm []int32, keyOf func(int32) int32) []int32 {
	if len(perm) == 0 {
		return perm
	}
	lo, hi := keyOf(perm[0]), keyOf(perm[0])
	for _, i := range perm[1:] {
		k := keyOf(i)
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	buckets := make([]int32, int(hi-lo)+2)
	for _, i := range perm {
		buckets[keyOf(i)-lo+1]++
	}
	for b := 1; b < len(buckets); b++ {
		buckets[b] += buckets[b-1]
	}
	out := make([]int32, len(perm))
	for _, i := range perm {
		b := keyOf(i) - lo
		out[buckets[b]] = i
		buckets[b]++
	}
	return out
}

// directionKeyPos returns the line key and along-line position accessors.
func directionKeyPos(dir Direction, el *elements) (key, pos func(int32) int32) {
	switch dir {
	case DirHorizontal:
		return func(i int32) int32 { return el.rows[i] }, func(i int32) int32 { return el.cols[i] }
	case DirVertical:
		return func(i int32) int32 { return el.cols[i] }, func(i int32) int32 { return el.rows[i] }
	case DirDiagonal:
		return func(i int32) int32 { return el.cols[i] - el.rows[i] }, func(i int32) int32 { return el.rows[i] }
	case DirAntiDiagonal:
		return func(i int32) int32 { return el.rows[i] + el.cols[i] }, func(i int32) int32 { return el.rows[i] }
	}
	panic("csx: bad direction")
}

// rowSample returns the element indices, ascending, that the statistics pass
// looks at: every k-th window of 64 contiguous rows.
func (d *detector) rowSample() []int32 {
	el := d.el
	const window = 64
	k := int(1.0 / d.opts.SampleFraction)
	if k < 1 {
		k = 1
	}
	var sample []int32
	for w := int32(0); w*window < el.nRows; w += int32(k) {
		rLo := el.baseRow + w*window
		rHi := rLo + window
		if rHi > el.baseRow+el.nRows {
			rHi = el.baseRow + el.nRows
		}
		lo, _ := el.rowSpan(rLo)
		_, hi := el.rowSpan(rHi - 1)
		for i := lo; i < hi; i++ {
			sample = append(sample, i)
		}
	}
	// Degenerate sampling guard: matrices whose nonzeros concentrate in few
	// rows can slip between the sampled windows. If the sample covers far
	// less than the target fraction, fall back to exhaustive statistics —
	// such matrices are small or sparse enough for that to stay cheap.
	if target := int(d.opts.SampleFraction * float64(el.len()) / 4); len(sample) < target || len(sample) == 0 {
		sample = sample[:0]
		for i := int32(0); i < int32(el.len()); i++ {
			sample = append(sample, i)
		}
	}
	return sample
}

// sampleStats estimates per-direction coverage on a row sample: the fraction
// of sampled elements that lie in runs of at least MinRunLength. This is the
// statistics pass that drives substructure-type selection (and keeps the
// preprocessing cost contained, §V-E): each direction's sample is ordered by
// the two counting-sort passes directionPerm uses, never by a comparator.
func (d *detector) sampleStats() {
	el := d.el
	sample := d.rowSample()
	for _, dir := range d.opts.Directions {
		key, pos := directionKeyPos(dir, el)
		sub := sample // ascending element indices: row-major, the horizontal order
		if dir != DirHorizontal {
			sub = countingSortBy(countingSortBy(sample, pos), key)
		}
		covered := 0
		runLen := 1
		flush := func() {
			if runLen >= d.opts.MinRunLength {
				covered += runLen
			}
			runLen = 1
		}
		for a := 1; a < len(sub); a++ {
			i, j := sub[a-1], sub[a]
			if key(i) == key(j) && pos(j) == pos(i)+1 {
				runLen++
			} else {
				flush()
			}
		}
		flush()
		d.dirCoverage[dir] = float64(covered) / float64(len(sample))
	}
}

// assignDirection claims maximal unassigned runs of the direction as units.
func (d *detector) assignDirection(dir Direction) {
	el := d.el
	perm := d.directionPerm(dir)
	key, pos := directionKeyPos(dir, el)
	pat := dir.pattern()

	n := len(perm)
	a := 0
	for a < n {
		// Find the maximal geometric run starting at perm[a].
		b := a + 1
		for b < n && key(perm[b]) == key(perm[b-1]) && pos(perm[b]) == pos(perm[b-1])+1 {
			b++
		}
		// Within the run, claim maximal unassigned segments.
		s := a
		for s < b {
			for s < b && d.owner[perm[s]] != unassigned {
				s++
			}
			t := s
			for t < b && d.owner[perm[t]] == unassigned {
				t++
			}
			d.claimSegment(pat, perm[s:t])
			s = t
		}
		a = b
	}
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
		end := off + maxUnitSize
		if end > len(seg) {
			end = len(seg)
		}
		if end-off < d.opts.MinRunLength {
			break // tail too short to stand alone as a pattern unit
		}
		part := seg[off:end]
		u := unit{
			pat:   pat,
			row:   el.rows[part[0]],
			col:   el.cols[part[0]],
			elems: append([]int32(nil), part...),
		}
		for _, i := range part {
			d.owner[i] = uint8(pat)
		}
		d.units = append(d.units, u)
	}
}
