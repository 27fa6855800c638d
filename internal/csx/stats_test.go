package csx

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// coverageReference is the statistics pass as it was before it borrowed the
// detector's counting sort: each direction's sample goes through a
// comparator sort on (line key, position along the line).
func coverageReference(d *detector, sample []int32) (cov [numDirections]float64) {
	for _, dir := range d.opts.Directions {
		key, pos := directionKeyPos(dir, d.el)
		sub := append([]int32(nil), sample...)
		sort.Slice(sub, func(a, b int) bool {
			i, j := sub[a], sub[b]
			if key(i) != key(j) {
				return key(i) < key(j)
			}
			return pos(i) < pos(j)
		})
		covered, runLen := 0, 1
		for a := 1; a <= len(sub); a++ {
			if a < len(sub) && key(sub[a-1]) == key(sub[a]) && pos(sub[a]) == pos(sub[a-1])+1 {
				runLen++
				continue
			}
			if runLen >= d.opts.MinRunLength {
				covered += runLen
			}
			runLen = 1
		}
		cov[dir] = float64(covered) / float64(len(sample))
	}
	return cov
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
// looks at: every k-th window of 64 contiguous rows. (The element list the
// statistics pass sorted before it walked the sampled rows instead.)
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

// suiteCOO generates a suite matrix at test scale.
func suiteCOO(t *testing.T, name string, rows int) *matrix.COO {
	t.Helper()
	spec, err := gen.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gen.Generate(spec, float64(rows)/float64(spec.Rows))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// suiteSSS builds a generated suite matrix at test scale.
func suiteSSS(t *testing.T, name string, rows int) *core.SSS {
	t.Helper()
	s, err := core.FromCOO(suiteCOO(t, name, rows))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSampleStatsMatchesComparatorSort: walking adjacent sampled rows finds
// the runs the comparator-sorted sample holds, so the coverages — which pick
// the unit types — are equal to the last bit, on every thread's row range,
// with every 10th and every 4th window sampled, every window (fraction 0.6)
// and the exhaustive sample.
func TestSampleStatsMatchesComparatorSort(t *testing.T) {
	for _, name := range []string{"bmwcra_1", "parabolic_fem"} {
		s := suiteSSS(t, name, 6000)
		part := partition.ByNNZ(s.RowPtr, 3)
		for tid := range part.Start {
			el, _, _ := buildElements(s.RowPtr, s.ColIdx, part.Start[tid], part.End[tid])
			for _, fraction := range []float64{0.1, DefaultOptions().SampleFraction, 0.6, 1} {
				opts := DefaultOptions()
				opts.SampleFraction = fraction
				d := newDetector(el, opts, part.Start[tid])
				d.sampleStats()
				if want := coverageReference(d, d.rowSample()); d.dirCoverage != want {
					t.Errorf("%s thread %d fraction %g: coverage %v, comparator sort gives %v", name, tid, fraction, d.dirCoverage, want)
				}
			}
		}
	}
}

// TestSymBlobBytesPinned pins the serialized CSX-Sym matrix of two suite
// matrices to the bytes the encoder produced before the set-up path was
// rewritten: the reader, Normalize and the statistics pass may get faster,
// the encoding may not move. It moved once, on purpose: when the block pass
// began claiming every block three or more columns wide before any 2-column
// one, the four block-enabled pins that meet a narrow overlap first (bmwcra_1
// here and bmwcra_1, consph and scattered-band under the defaults) were
// re-pinned; TestWideBlocksFirstNeverGrows holds that change to the old pass
// kept in blocks_ref_test.go. The second table pins plain CSX and CSX-Sym at
// three thread counts, under the defaults and under option sets that force
// every direction pass, on four suite matrices.
func TestSymBlobBytesPinned(t *testing.T) {
	pinned := map[string]string{
		"bmwcra_1":      "00e2e1ecc1d66ea190dcd2a70ec152d1cdc8c0ee7c5b23b299f30022ffaca579",
		"parabolic_fem": "c364409a133c9f3ee84e85d3b42651ba93d11e6f21cf22b3f63a15b3df51145c",
	}
	for name, want := range pinned {
		sm := NewSym(suiteSSS(t, name, 6000), 3, core.Indexed, DefaultOptions())
		var buf bytes.Buffer
		if _, err := sm.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
			t.Errorf("%s: %d serialized bytes hash to %s, pinned %s", name, buf.Len(), got, want)
		}
	}

	// Every encoder configuration: per matrix and option set, one hash over
	// the CSX-Sym matrix and the plain CSX blobs at p = 1, 2 and 3.
	encoded := map[string]string{
		"bmwcra_1/anti-diagonal/run2":       "7379024a5fb18c2cefa7e6066af0ddb29df025106437d1d551e86d7a8d4eb9f6",
		"bmwcra_1/anti-diagonal/run3":       "f8e7fda360c7e148850bed8901cba90d9787a57cab426eedf6c8698dadd3441d",
		"bmwcra_1/default":                  "470e4ecf6f4e24272919c07162c895f8206e56692bc45660147b92d323edbc60",
		"bmwcra_1/diagonal/run2":            "2ce8c5ee8578863d77f096f15fa124a3aae479fa84d85844b9a8eb8a6c660eae",
		"bmwcra_1/diagonal/run3":            "c148d75b4b52db815990e9f474704b6d9b343389ae6426c45f8bf19edd3b2dbd",
		"bmwcra_1/horizontal/run2":          "945fb8de161f0975c7f771df4bfb5f5c490b7a9ac0b27229c9aa282a5db0913d",
		"bmwcra_1/horizontal/run3":          "9d069da6593c1173d5dc49bd57d70975809fd137489c2a68de698c7493591e2a",
		"bmwcra_1/vertical/run2":            "c70ea110890627a7cb5fe0c21e2dabbb81c2b095e56220db6879bb2d131da71d",
		"bmwcra_1/vertical/run3":            "6522aab846627ffbd5044e69fae5c1d15a461003a8ba8079bb3881b13a0e77c7",
		"consph/anti-diagonal/run2":         "7567d2ed28d9b535b9a66d96d742d1c52a89c7591fd446e21204d3f2df880475",
		"consph/anti-diagonal/run3":         "0c7a4bd8069ba4a49f5493da0ab0a37de651e081f365c19d1b055629dca52462",
		"consph/default":                    "9331c3688d6440aff75b0b1b3c1fded076ab9889fb93f1f96c67fc3ed7ae0b71",
		"consph/diagonal/run2":              "c445965cd8db45b1f0c2e67b806bebbaf41576eae56745de0cf83c78b55205bd",
		"consph/diagonal/run3":              "92782af0bad97b432aaa4eea481ff02401c3820a0d50919ffd9cd8d3cd2e3e8f",
		"consph/horizontal/run2":            "9e325c45230c8a026e94790221edd33c2a55fe5ae3a3c39ac992d178e21ae1ab",
		"consph/horizontal/run3":            "0f4389b5b1813e28241454378bd46b8190edd4a62bf02d042bf26bbd77809556",
		"consph/vertical/run2":              "c2459879fd7ff724c63a86831b8db4cb30478de72a1379f365d51d0d19730d30",
		"consph/vertical/run3":              "d81fcaa5eda70ed1ff0deca2990bee5cf298e7b0e0fff1072a3fb6f8b9da9b24",
		"parabolic_fem/anti-diagonal/run2":  "76b1d909e8b007a16fb6e39214907b1c240ab9cd2b1f44dc1caad2a5198e4c3d",
		"parabolic_fem/anti-diagonal/run3":  "e4134d9c8a9788bb5e0f9ba3248c846b7011d69a99d5e2e1b62221b022720fcf",
		"parabolic_fem/default":             "6eb794f0915fd5bf4a1462ec60d63d1066dff924e790038551140b6fd9135a43",
		"parabolic_fem/diagonal/run2":       "0d7d76cddaadb55d514b697755180d47d2ac3ea7db1923de89998b1698302886",
		"parabolic_fem/diagonal/run3":       "99d9a88ddf3f1b87adb8e1f12f5bf409830450e3a52af1c37e533d3295d278a3",
		"parabolic_fem/horizontal/run2":     "352f28d465e81e1bd2312e11da24b734ea46bc6cb66ece344dce4e12abe75271",
		"parabolic_fem/horizontal/run3":     "080ea10ff67964e6ffff3e6daaa27a560100ffdc3b89f2231df40699574fb0b9",
		"parabolic_fem/vertical/run2":       "30be00515494ac4b406a0c1815dc2c2caed00d8425a0c1fbdb8f889bc7334076",
		"parabolic_fem/vertical/run3":       "080ea10ff67964e6ffff3e6daaa27a560100ffdc3b89f2231df40699574fb0b9",
		"scattered-band/anti-diagonal/run2": "5072a048a2681f6052d78349ec7aa7810c4771d9a8f41ce8112f7d1cbcaafe11",
		"scattered-band/anti-diagonal/run3": "9b6027ea4ca0371f1c6abe2a5a3083ba6f59a7bb971ae8f746c2d0c3f73d55ad",
		"scattered-band/default":            "cdbbcf2d2914bb05db21c42f7ed5da5fbedae00cf6b95b9ed062ea82a82d6e8c",
		"scattered-band/diagonal/run2":      "fa4ed59973513d9d395b6c20ae531e0b9ebab45961bc128b72881a845144cd81",
		"scattered-band/diagonal/run3":      "fa57fafa2d88599ef4826656c1d7169c73bd00632832cfd5b0177b6f82ff835e",
		"scattered-band/horizontal/run2":    "43b698bd86e72b306606fa11946aaa20ac9cb202b9ecfdf75055b5c2803d2a21",
		"scattered-band/horizontal/run3":    "1860004202ce494635f843a5174cd2246307e2f5bdf663974a716bb38a8a6d72",
		"scattered-band/vertical/run2":      "6146f7c379cbb67cf54b789840afbbae436aab25cdbe370ae4b2b026d69865e2",
		"scattered-band/vertical/run3":      "b80e7fa71471749769471e7740f117bdab8c40bfb3ae13aef77727d9034b1603",
	}
	var found [numPatterns]int64
	for _, name := range []string{"bmwcra_1", "parabolic_fem", "consph", "scattered-band"} {
		m := suiteCOO(t, name, 3000)
		s, err := core.FromCOO(m)
		if err != nil {
			t.Fatal(err)
		}
		a := csr.FromCOO(m) // NewMatrix's row-major layout, assembled once
		for set, opts := range pinnedOptions() {
			h := sha256.New()
			for p := 1; p <= 3; p++ {
				sm := NewSym(s, p, core.Indexed, opts)
				if _, err := sm.WriteTo(h); err != nil {
					t.Fatal(err)
				}
				mx := fromCSRLayout(a.Rows, a.Cols, a.RowPtr, a.ColIdx, a.Val, p, opts)
				for _, b := range append(mx.Blobs, sm.Blobs...) {
					for pat, n := range b.UnitCount {
						found[pat] += n
					}
				}
				writeBlobs(t, h, mx.Blobs)
			}
			key := name + "/" + set
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != encoded[key] {
				t.Errorf("%s: encodings hash to %s, pinned %s", key, got, encoded[key])
			}
		}
	}
	// The pins are only worth what they reach: every substructure pattern is
	// encoded somewhere (no column delta needs 32 bits at this size).
	for pat := Horizontal; pat < numPatterns; pat++ {
		if found[pat] == 0 {
			t.Errorf("no %s unit under any pinned configuration", pat)
		}
	}
}

// pinnedOptions are the option sets TestSymBlobBytesPinned encodes under: the
// defaults, and each direction alone at run lengths 2 and 3, with blocks off
// and a coverage floor any run clears. The defaults claim no vertical,
// diagonal or anti-diagonal unit on a suite matrix; only the forced sets reach
// those passes.
func pinnedOptions() map[string]Options {
	sets := map[string]Options{"default": DefaultOptions()}
	for dir := DirHorizontal; dir < numDirections; dir++ {
		for _, run := range []int{2, 3} {
			sets[fmt.Sprintf("%s/run%d", dir, run)] = Options{
				MinRunLength: run, MinCoverage: 1e-9, Directions: []Direction{dir}, EnableBlocks: false,
			}
		}
	}
	return sets
}

// writeBlobs writes the encoder's output for plain CSX blobs, every field
// SymMatrix.WriteTo writes for a blob, little-endian.
func writeBlobs(t *testing.T, w io.Writer, blobs []*Blob) {
	t.Helper()
	for _, b := range blobs {
		for _, v := range []any{b.StartRow, b.EndRow, int64(b.NNZ), int64(len(b.Ctl)), b.Ctl, b.Vals, b.UnitCount[:], b.DeltaElems} {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}
