package csx

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// The block pass as it was before strips, kept as the oracle (its name
// changed, and a block is now a strip of one run and no triangle): one sweep
// that claims, at each row, the first overlap at least 2 columns wide it
// meets with the rows below, so a range's blocks depend on the row it starts
// at. TestSupernodeStripsNeverGrow holds detectStrips to it.

// hrun is a maximal run of consecutive-column unassigned elements in one row.
type hrun struct {
	col0 int32 // first column
	idx0 int32 // element index of first element (row-major ⇒ consecutive)
	w    int32 // width
}

// rowRuns lists the maximal unassigned horizontal runs of row r.
func (d *detector) rowRuns(r int32, buf []hrun) []hrun {
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
		buf = append(buf, hrun{col0: el.cols[i], idx0: i, w: j - i})
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

// detectBlocksReference greedily claims 3-row, then 2-row dense blocks
// anchored at each row in top-down order. A block must be at least 2 columns
// wide and (for CSX-Sym) must not straddle the write boundary.
func (d *detector) detectBlocksReference() {
	el := d.el
	var bufA, bufB, bufC []hrun
	for r := el.baseRow; r < el.baseRow+el.nRows; r++ {
		bufA = d.rowRuns(r, bufA)
		if len(bufA) == 0 {
			continue
		}
		var runsB, runsC []hrun
		if r+1 < el.baseRow+el.nRows {
			bufB = d.rowRuns(r+1, bufB)
			runsB = bufB
		}
		if r+2 < el.baseRow+el.nRows {
			bufC = d.rowRuns(r+2, bufC)
			runsC = bufC
		}
		if len(runsB) == 0 {
			continue
		}
		for _, ra := range bufA {
			if ra.w < 2 {
				continue
			}
			// Best 2-row overlap with any run of row r+1.
			for _, rb := range runsB {
				c0, w := intersect(ra, rb)
				if w < 2 {
					continue
				}
				// Try to deepen to 3 rows.
				var rcBest hrun
				var c03, w3 int32
				for _, rc := range runsC {
					cc, wc := intersect(hrun{col0: c0, w: w}, rc)
					if wc >= 2 && wc > w3 {
						rcBest, c03, w3 = rc, cc, wc
					}
				}
				if w3 >= 2 {
					d.claimBlock(Strip3, c03, w3, [3]hrun{ra, rb, rcBest})
				} else {
					d.claimBlock(Strip2, c0, w, [3]hrun{ra, rb, {}})
				}
			}
		}
	}
}

// claimBlock claims the elements of a dense block anchored at column c0 of
// runs[0]'s row with width w, spanning 2 or 3 rows, splitting over-wide blocks
// at the size cap. Each per-row run is known to cover [c0, c0+w) with
// consecutive row-major elements, so element indices are computed by offset.
func (d *detector) claimBlock(pat Pattern, c0, w int32, runs [3]hrun) {
	if !d.legal(c0, c0+w-1) {
		return
	}
	depth := pat.depth()
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
		d.addUnit(pat, start).runs = []stripRun{{c0 + off, ww}}
	}
}

// encodeReference encodes the rows of a CSR-layout structure into p blobs as
// NewSym (symBoundary true) or NewMatrix do, with the reference block pass.
func encodeReference(rowPtr, colIdx []int32, vals []float64, p int, opts Options, symBoundary bool) []*Blob {
	part := partition.ByNNZ(rowPtr, p)
	blobs := make([]*Blob, p)
	for tid := range blobs {
		el, lo, _ := buildElements(rowPtr, colIdx, part.Start[tid], part.End[tid])
		boundary := int32(-1)
		if symBoundary {
			boundary = part.Start[tid]
		}
		det := newDetector(el, opts, boundary)
		det.detect(det.detectBlocksReference)
		blobs[tid] = det.encode(vals[lo:])
	}
	return blobs
}

// blobCensus reports the units and the encoded bytes of a matrix's blobs,
// the number of elements they decode to, and those elements normalized.
func blobCensus(t *testing.T, blobs []*Blob, n int, symmetric bool) (units, bytes int64, elems int, m *matrix.COO) {
	t.Helper()
	total := 0
	for _, b := range blobs {
		total += b.NNZ
	}
	m = matrix.NewCOO(n, n, total)
	for _, b := range blobs {
		for _, c := range b.UnitCount {
			units += c
		}
		bytes += b.Bytes()
		part, err := DecodeToCOO(b, n, n, symmetric)
		if err != nil {
			t.Fatal(err)
		}
		m.RowIdx = append(m.RowIdx, part.RowIdx...)
		m.ColIdx = append(m.ColIdx, part.ColIdx...)
		m.Val = append(m.Val, part.Val...)
	}
	return units, bytes, m.NNZ(), m.Normalize()
}

// TestSupernodeStripsNeverGrow: cutting supernodes into strips encodes no
// more units and no more bytes than the greedy block pass, and the same
// triplets, in CSX-Sym and plain CSX at p = 1, 2, 3 under the default
// options, on the eight block-structured suite matrices and the benchmark
// analogs, all at 6000 rows or fewer.
func TestSupernodeStripsNeverGrow(t *testing.T) {
	cases := map[string]*matrix.COO{}
	for _, name := range []string{"consph", "bmw7st_1", "bmwcra_1", "hood", "crankseg_2", "nd12k", "inline_1", "ldoor"} {
		cases[name] = suiteCOO(t, name, 2000)
	}
	for _, a := range analogs {
		if _, ok := cases[a.name]; !ok {
			cases[a.name] = a.build(t, min(1, 6000/float64(a.rows)))
		}
	}
	opts := DefaultOptions()
	shrunk := 0
	for name, m := range cases {
		s, err := core.FromCOO(m)
		if err != nil {
			t.Fatal(err)
		}
		a := csr.FromCOO(m)
		for p := 1; p <= 3; p++ {
			sm := NewSym(s, p, core.Indexed, opts)
			mx := fromCSRLayout(a.Rows, a.Cols, a.RowPtr, a.ColIdx, a.Val, p, opts)
			for _, c := range []struct {
				format    string
				got, ref  []*Blob
				symmetric bool
			}{
				{"csx-sym", sm.Blobs, encodeReference(s.RowPtr, s.ColIdx, s.Val, p, opts, true), true},
				{"csx", mx.Blobs, encodeReference(a.RowPtr, a.ColIdx, a.Val, p, opts, false), false},
			} {
				units, bytes, elems, got := blobCensus(t, c.got, s.N, c.symmetric)
				refUnits, refBytes, refElems, want := blobCensus(t, c.ref, s.N, c.symmetric)
				if units > refUnits || bytes > refBytes {
					t.Errorf("%s %s p=%d: %d units in %d bytes, the greedy block pass %d units in %d bytes", name, c.format, p, units, bytes, refUnits, refBytes)
				}
				if elems != refElems {
					t.Errorf("%s %s p=%d: %d elements decoded, the greedy block pass %d", name, c.format, p, elems, refElems)
				}
				assertSameTriplets(t, fmt.Sprintf("%s %s p=%d", name, c.format, p), got, want)
				if units < refUnits {
					shrunk++
				}
			}
		}
	}
	if shrunk == 0 {
		t.Error("no encoding lost a unit: the comparison never met a supernode")
	}
}
