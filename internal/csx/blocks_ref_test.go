package csx

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// The block pass as it was before it claimed wide blocks first, kept as the
// oracle (its name changed, and it asks rowRuns for runs of any width): one
// sweep that claims, at each row, the first overlap at least 2 columns wide it
// meets. TestWideBlocksFirstNeverGrows holds detectBlocks to it.

// detectBlocksReference greedily claims 3-row, then 2-row dense blocks
// anchored at each row in top-down order. A block must be at least 2 columns
// wide and (for CSX-Sym) must not straddle the write boundary.
func (d *detector) detectBlocksReference() {
	el := d.el
	// A row has at most as many runs as elements: size the buffers once.
	longest := int32(0)
	for i := range el.nRows {
		longest = max(longest, el.rowPtr[i+1]-el.rowPtr[i])
	}
	bufA, bufB, bufC := make([]hrun, 0, longest), make([]hrun, 0, longest), make([]hrun, 0, longest)
	for r := el.baseRow; r < el.baseRow+el.nRows; r++ {
		bufA = d.rowRuns(r, 1, bufA)
		if len(bufA) == 0 {
			continue
		}
		var runsB, runsC []hrun
		if r+1 < el.baseRow+el.nRows {
			bufB = d.rowRuns(r+1, 1, bufB)
			runsB = bufB
		}
		if r+2 < el.baseRow+el.nRows {
			bufC = d.rowRuns(r+2, 1, bufC)
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
					d.claimBlock(Block3, c03, w3, [3]hrun{ra, rb, rcBest})
				} else {
					d.claimBlock(Block2, c0, w, [3]hrun{ra, rb, {}})
				}
			}
		}
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

// TestWideBlocksFirstNeverGrows: claiming every block three or more columns
// wide before any 2-column one encodes no more units and no more bytes than
// the one-sweep pass, and the same triplets, in CSX-Sym and plain CSX at
// p = 1, 2, 3 under the default options, on the eight block-structured suite
// matrices and the benchmark analogs, all at 6000 rows or fewer.
func TestWideBlocksFirstNeverGrows(t *testing.T) {
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
					t.Errorf("%s %s p=%d: %d units in %d bytes, the one-sweep pass %d units in %d bytes", name, c.format, p, units, bytes, refUnits, refBytes)
				}
				if elems != refElems {
					t.Errorf("%s %s p=%d: %d elements decoded, the one-sweep pass %d", name, c.format, p, elems, refElems)
				}
				assertSameTriplets(t, fmt.Sprintf("%s %s p=%d", name, c.format, p), got, want)
				if units < refUnits {
					shrunk++
				}
			}
		}
	}
	if shrunk == 0 {
		t.Error("no encoding lost a unit: the comparison never met a narrow overlap before a wide one")
	}
}
