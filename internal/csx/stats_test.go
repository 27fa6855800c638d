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
// the encoding may not move. It moved twice, on purpose: when the block pass
// began claiming every block three or more columns wide before any 2-column
// one, the four block-enabled pins that meet a narrow overlap first (bmwcra_1
// here and bmwcra_1, consph and scattered-band under the defaults) were
// re-pinned; and the strip grammar (serialize version 2: strips for blocks,
// no anti-diagonal pattern, an eight-entry unit count) moved every pin, its
// strips held to the old block pass by TestSupernodeStripsNeverGrow in
// blocks_ref_test.go. The second table pins plain CSX and CSX-Sym at
// three thread counts, under the defaults and under option sets that force
// every direction pass, on four suite matrices.
func TestSymBlobBytesPinned(t *testing.T) {
	pinned := map[string]string{
		"bmwcra_1":      "3b14f04bec0366c5e9f2cb51a6ca8dd7f2d09225a31ba11b621518a169485c7a",
		"parabolic_fem": "2e14efca1fc46ed9c03cf21c350db65aa789134f46e85512ba3da72d5937b733",
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
		"bmwcra_1/default":               "0a5c17298e8805015e32798fe57f0582fbcf459a97e8fdb3a2c4ca1d320e349c",
		"bmwcra_1/diagonal/run2":         "7441be86c934be19d464739ea497e96c8c61f8f2758cddb40bddcc0c203f3a0b",
		"bmwcra_1/diagonal/run3":         "6af0d14ba9a87c54ea9c458901b4fd8eed1d2a3ace3c031d2f507072883516aa",
		"bmwcra_1/horizontal/run2":       "5662d074eb188ad2cbb401c898f2ed689105f6b29686ca86fa0b23fed4bd4aef",
		"bmwcra_1/horizontal/run3":       "1be4622de53724fe467ea4eefaa62437f62d68f6a15359e05910809bea6063fd",
		"bmwcra_1/vertical/run2":         "d9a7642fb7728d828288aab58d060e461989c21a73193e45fd8c39837c4d86a2",
		"bmwcra_1/vertical/run3":         "3c2818d1cfac773a041a89efe24fac7e6355c3d52247ab0efe7345d76c6e3656",
		"consph/default":                 "2623c6529f55da81bfdae5e89feec364776418f256ea3696129783539736d527",
		"consph/diagonal/run2":           "c64fdcb64150de28168bd0fc055d93ab7d6ad9b605ada3552a15059f12f92be6",
		"consph/diagonal/run3":           "fd8e10f4da62518720656a7f3a610e916d566f8995014b74d36a6a3173d22d95",
		"consph/horizontal/run2":         "3832d5f44bd54f3edbe593475e51ed312920ec242c56f9ba4c6432c8b877ac6a",
		"consph/horizontal/run3":         "0fa2ae5df48bdeccaf3fae0a5554168fba2fe00b6860d1690788506f47f81110",
		"consph/vertical/run2":           "729e29aad38d1bfe597a22b4aa9410a3f855d8fb84503c17a7db7c0341161dd0",
		"consph/vertical/run3":           "d01c85fb854d9c453c4269fe402674231f937216c5afd7c8a4942e8de05c3635",
		"parabolic_fem/default":          "eda2f92845ba1a0a0726c679a727751f149f8d859a5306a5b5ef6d2217033814",
		"parabolic_fem/diagonal/run2":    "c0b0040108bd3f1ffdaa2c8c99ed6d61b7878a9e0ca06095cfb249f5af2e028a",
		"parabolic_fem/diagonal/run3":    "5c829c69fb8289365e69e192d677c02c6bbab0be6f123951c2af79d994f64cd9",
		"parabolic_fem/horizontal/run2":  "332a0d732b30c2152290d7bce24109dbffaec70833a7f41fe337e0bb31cb945b",
		"parabolic_fem/horizontal/run3":  "9ba25714245dcd6a313aa18bc307cf3da3caa92bf04a870e169bd0b91a01d784",
		"parabolic_fem/vertical/run2":    "cbf1f6760d00c8f22912d5ad04bbf5d47300e3db08462f496d90644891d786c4",
		"parabolic_fem/vertical/run3":    "9ba25714245dcd6a313aa18bc307cf3da3caa92bf04a870e169bd0b91a01d784",
		"scattered-band/default":         "72bf6c0852dc74f93f99991ec350a44c168fc4f084a65b6ca032b782635746be",
		"scattered-band/diagonal/run2":   "dc735f94a46742a7100ae17de3ae7f9c7cf086cfff7a12dd838f1d6584091d50",
		"scattered-band/diagonal/run3":   "516900902e0e2589991e1989a4beb4e955da85fe94f22007cfd2deee1fb50756",
		"scattered-band/horizontal/run2": "832a3b259529bdc918e1631dbb28e05750022e75747fb7b8e867b6705b1b452f",
		"scattered-band/horizontal/run3": "5c52010d66064f2978be6d2fbebf13d55fbdd8473d94bf585509b52b333c9b42",
		"scattered-band/vertical/run2":   "33609fee10db1661b47b6913ca83d7eb3bb59ebc8c0213fe211312beb1cbf9bc",
		"scattered-band/vertical/run3":   "10b63a093c1cc9840424415757f9523d542e9ac609db0319b2515a4d5388b2da",
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
// or diagonal unit on a suite matrix; only the forced sets reach
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
