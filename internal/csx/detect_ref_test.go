package csx

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// The claim pass as it was before the detector walked adjacent rows, kept as
// the oracle (assignDirection's name changed, and the direction's permutation
// is passed in so one sort serves every option set): each direction's
// elements in the order of two stable counting sorts, by position along the
// line, then by line. TestAssignDirectionMatchesSortedReference holds
// assignDirection to it.

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

// assignDirectionReference claims maximal unassigned runs of the direction as
// units; perm is d.directionPerm(dir).
func (d *detector) assignDirectionReference(dir Direction, perm []int32) {
	el := d.el
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

// longRuns is a 1300-row matrix of runs longer than a unit holds, every one of
// which straddles a column boundary inside the matrix: a vertical run down
// column 0, the sub-diagonal, an anti-diagonal through (1290, 0) and a
// 700-element row.
func longRuns(t *testing.T) *core.SSS {
	t.Helper()
	const n = 1300
	m := matrix.NewCOO(n, n, 4*n)
	m.Symmetric = true
	for r := 0; r < n; r++ {
		m.Add(r, r, 4)
		if r > 0 {
			m.Add(r, r-1, 1)
		}
		if r > 1 && r <= 700 {
			m.Add(r, 0, 2)
		}
		if c := 1290 - r; c >= 0 && c < r-1 {
			m.Add(r, c, 3)
		}
	}
	for c := 300; c < 1000; c++ {
		m.Add(n-1, c, 5)
	}
	s, err := core.FromCOO(m.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAssignDirectionMatchesSortedReference: walking adjacent rows claims
// what the sorted claim pass claimed — the same units with the same pattern,
// anchor and element order, and the same owners — for each direction forced
// alone and for all three in turn, after the strip pass or without it, in CSX
// and CSX-Sym ranges (the boundary at the range's first row and at its middle
// row; at row 0 the boundary is no boundary), on testMatrices, the suite
// matrices and longRuns.
func TestAssignDirectionMatchesSortedReference(t *testing.T) {
	cases := map[string]*core.SSS{"long-runs": longRuns(t)}
	for name, m := range testMatrices(t) {
		s, err := core.FromCOO(m)
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = s
	}
	for _, name := range []string{"bmwcra_1", "parabolic_fem", "consph", "scattered-band"} {
		cases[name] = suiteSSS(t, name, 1500)
	}
	all := []Direction{DirHorizontal, DirVertical, DirDiagonal}
	orders := [][]Direction{all[:1], all[1:2], all[2:], all}
	var claimed [numPatterns]int
	for name, s := range cases {
		for _, p := range []int{1, 3} {
			part := partition.ByNNZ(s.RowPtr, p)
			for tid := range part.Start {
				start, end := part.Start[tid], part.End[tid]
				el, _, _ := buildElements(s.RowPtr, s.ColIdx, start, end)
				var perms [numDirections][]int32
				for _, dir := range all {
					perms[dir] = newDetector(el, Options{}, -1).directionPerm(dir)
				}
				boundaries := []int32{-1}
				for _, b := range []int32{start, (start + end) / 2} {
					if b > 0 && b != boundaries[len(boundaries)-1] {
						boundaries = append(boundaries, b)
					}
				}
				for _, boundary := range boundaries {
					for _, run := range []int{2, 3} {
						for _, blocks := range []bool{false, true} {
							for _, order := range orders {
								opts := Options{MinRunLength: run}
								walk, ref := newDetector(el, opts, boundary), newDetector(el, opts, boundary)
								if blocks {
									walk.detectStrips()
									ref.detectStrips()
								}
								for _, dir := range order {
									walk.assignDirection(dir)
									ref.assignDirectionReference(dir, perms[dir])
								}
								walk.sortUnits()
								ref.sortUnits()
								if err := sameUnits(walk, ref); err != nil {
									t.Fatalf("%s p=%d thread %d boundary %d run %d blocks %v %v: %v", name, p, tid, boundary, run, blocks, order, err)
								}
								for _, u := range walk.units {
									claimed[u.pat]++
								}
							}
						}
					}
				}
			}
		}
	}
	for pat := Horizontal; pat < numPatterns; pat++ {
		if claimed[pat] == 0 {
			t.Errorf("no %s unit claimed: the comparison never reached that pass", pat)
		}
	}
}

// sameUnits reports the first difference between two detectors' units and
// owners.
func sameUnits(walk, ref *detector) error {
	if len(walk.units) != len(ref.units) {
		return fmt.Errorf("%d units, the sorted pass claims %d", len(walk.units), len(ref.units))
	}
	for k, u := range walk.units {
		v := ref.units[k]
		if u.pat != v.pat || u.row != v.row || u.col != v.col || !slices.Equal(u.runs, v.runs) || !slices.Equal(u.elems, v.elems) {
			return fmt.Errorf("unit %d is %v at (%d,%d) runs %v over %v, the sorted pass has %v at (%d,%d) runs %v over %v",
				k, u.pat, u.row, u.col, u.runs, u.elems, v.pat, v.row, v.col, v.runs, v.elems)
		}
	}
	if !slices.Equal(walk.owner, ref.owner) {
		return fmt.Errorf("same units, different owners")
	}
	return nil
}
