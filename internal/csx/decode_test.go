package csx

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/matrix"
)

// assertSameTriplets compares two normalized COO matrices exactly.
func assertSameTriplets(t *testing.T, name string, got, want *matrix.COO) {
	t.Helper()
	if got.NNZ() != want.NNZ() {
		t.Fatalf("%s: nnz %d, want %d", name, got.NNZ(), want.NNZ())
	}
	for k := range want.Val {
		if got.RowIdx[k] != want.RowIdx[k] || got.ColIdx[k] != want.ColIdx[k] ||
			got.Val[k] != want.Val[k] {
			t.Fatalf("%s: triplet %d = (%d,%d,%g), want (%d,%d,%g)", name, k,
				got.RowIdx[k], got.ColIdx[k], got.Val[k],
				want.RowIdx[k], want.ColIdx[k], want.Val[k])
		}
	}
}

func TestDecodeMatrixRoundTrip(t *testing.T) {
	for name, m := range testMatrices(t) {
		general := m.ToGeneral()
		for _, p := range []int{1, 3} {
			mx := NewMatrix(m, p, DefaultOptions())
			back, err := DecodeMatrix(mx)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			assertSameTriplets(t, name, back, general)
		}
	}
}

func TestDecodeSymMatrixRoundTrip(t *testing.T) {
	for name, m := range testMatrices(t) {
		s, err := core.FromCOO(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			sm := NewSym(s, p, core.Indexed, DefaultOptions())
			back, err := DecodeSymMatrix(sm)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			assertSameTriplets(t, name, back, m)
		}
	}
}

// Property: CSX round-trips arbitrary random symmetric matrices exactly,
// for any thread count and option set.
func TestQuickCSXSymRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(150)
		m := matrix.NewCOO(n, n, n*4)
		m.Symmetric = true
		for r := 0; r < n; r++ {
			if rng.Intn(4) > 0 { // some rows have no diagonal
				m.Add(r, r, 1+rng.Float64())
			}
			for k := 0; k < rng.Intn(5) && r > 0; k++ {
				m.Add(r, rng.Intn(r), rng.NormFloat64())
			}
		}
		m.Normalize()
		s, err := core.FromCOO(m)
		if err != nil {
			return false
		}
		opts := DefaultOptions()
		opts.MinRunLength = 2 + rng.Intn(4)
		opts.EnableBlocks = rng.Intn(2) == 0
		opts.SampleFraction = 0.1 + 0.9*rng.Float64()
		p := 1 + rng.Intn(8)
		sm := NewSym(s, p, core.Indexed, opts)
		back, err := DecodeSymMatrix(sm)
		if err != nil {
			return false
		}
		// Compare against the SSS content (explicit zero diagonals dropped).
		want := s.ToCOO(false)
		if back.NNZ() != want.NNZ() {
			return false
		}
		for k := range want.Val {
			if back.RowIdx[k] != want.RowIdx[k] || back.ColIdx[k] != want.ColIdx[k] ||
				back.Val[k] != want.Val[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCatchesCorruptStream(t *testing.T) {
	ms := testMatrices(t)
	mx := NewMatrix(ms["banded"], 1, DefaultOptions())
	b := mx.Blobs[0]
	// Truncate the ctl stream mid-unit.
	bad := &Blob{StartRow: b.StartRow, EndRow: b.EndRow, Ctl: b.Ctl[:1], Vals: b.Vals, NNZ: b.NNZ}
	if _, err := DecodeToCOO(bad, mx.Rows, mx.Cols, false); err == nil {
		t.Fatal("decoder accepted truncated head")
	}
	// Excess values.
	bad2 := &Blob{StartRow: b.StartRow, EndRow: b.EndRow, Ctl: b.Ctl, Vals: append(append([]float64{}, b.Vals...), 1), NNZ: b.NNZ}
	if _, err := DecodeToCOO(bad2, mx.Rows, mx.Cols, false); err == nil {
		t.Fatal("decoder accepted surplus values")
	}
}

func TestUnitDump(t *testing.T) {
	ms := testMatrices(t)
	mx := NewMatrix(ms["blocked"], 1, DefaultOptions())
	dump := UnitDump(mx.Blobs[0], 10)
	if dump == "" {
		t.Fatal("empty unit dump")
	}
	if !strings.Contains(dump, "row=") || !strings.Contains(dump, "pat=") {
		t.Fatalf("unexpected dump format:\n%s", dump)
	}
	if got := strings.Count(dump, "\n"); got != 10 {
		t.Fatalf("asked for 10 units, got %d lines:\n%s", got, dump)
	}
	if UnitDump(mx.Blobs[0], 0) != "" {
		t.Fatal("a dump of zero units is not empty")
	}

	// A delta unit whose body is cut short: the units before it are listed,
	// then the walker's error — the fourth copy of the ctl walker this
	// replaced indexed ctl[off+k] unchecked here and panicked.
	w := newCtlWriter(0)
	w.beginUnit(Horizontal, 3, 5, 1, 3)
	w.beginUnit(Delta8, 4, 9, 0, 6)
	w.putDelta8(2)
	cut := &Blob{EndRow: 10, Ctl: w.buf, Vals: make([]float64, 7), NNZ: 7}
	dump = UnitDump(cut, 10)
	if !strings.HasPrefix(dump, "unit   0: row=5 col=1 pat=horizontal size=3\n") || !strings.HasSuffix(dump, "<csx: truncated delta body at byte 9>\n") {
		t.Fatalf("dump of a truncated delta body:\n%s", dump)
	}
	if mix := UnitMix(cut); !strings.Contains(mix, "horizontal") || !strings.HasSuffix(mix, "<csx: truncated delta body at byte 9>\n") {
		t.Fatalf("unit mix of a truncated delta body:\n%s", mix)
	}
	cut.Ctl = cut.Ctl[:5] // and cut inside the second unit head
	if dump = UnitDump(cut, 10); !strings.HasSuffix(dump, "<csx: truncated unit head at byte 4>\n") {
		t.Fatalf("dump of a truncated unit head:\n%s", dump)
	}
}

// UnitMix counts what the encoder counted (Blob.UnitCount, DeltaElems), from
// the ctl stream alone, and its block widths add up to the block patterns.
func TestUnitMixAgreesWithTheEncoder(t *testing.T) {
	ms := testMatrices(t)
	for name, m := range ms {
		b := NewMatrix(m, 1, DefaultOptions()).Blobs[0]
		mix, err := mixOf(b)
		if err != nil {
			t.Fatal(err)
		}
		var elems, delta int64
		for p := Pattern(0); p < numPatterns; p++ {
			units, n := mix.totals(p)
			if units != b.UnitCount[p] {
				t.Errorf("%s: %d %s units in the stream, the encoder counted %d", name, units, p, b.UnitCount[p])
			}
			elems += n
			if p <= Delta32 {
				delta += n
			}
		}
		if elems != int64(b.NNZ) || delta != b.DeltaElems {
			t.Errorf("%s: %d elements (%d in delta units) in the stream, the blob holds %d (%d)", name, elems, delta, b.NNZ, b.DeltaElems)
		}
		if out := UnitMix(b); b.UnitCount[Block3] > 0 && !strings.Contains(out, "width ") {
			t.Errorf("%s: no width histogram under the block patterns:\n%s", name, out)
		}
	}
}

func TestDelta16And32Coverage(t *testing.T) {
	// A row with huge column gaps forces 16- and 32-bit delta bodies.
	n := 1 << 18
	m := matrix.NewCOO(n, n, 16)
	m.Symmetric = true
	r := n - 1
	m.Add(r, 0, 1)
	m.Add(r, 300, 2)    // gap 300 -> delta16
	m.Add(r, 400, 3)    // same chunk
	m.Add(r, 100000, 4) // gap ~1e5 -> delta32
	m.Add(r, 200000, 5) //
	m.Add(r, r, 9)
	m.Normalize()
	opts := DefaultOptions()
	opts.Directions = []Direction{DirHorizontal} // nothing to find: all deltas
	mx := NewMatrix(m, 1, opts)
	b := mx.Blobs[0]
	if b.UnitCount[Delta16]+b.UnitCount[Delta32] == 0 {
		t.Fatalf("expected wide delta units, histogram %+v", b.UnitCount)
	}
	back, err := DecodeMatrix(mx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTriplets(t, "wide-delta", back, m.ToGeneral())
}

func TestLongRunsSplitAtSizeCap(t *testing.T) {
	// A single row with 1000 consecutive columns: must split into ≥4
	// horizontal units of ≤255 elements and still round-trip.
	m := matrix.NewCOO(1200, 1200, 1001)
	m.Symmetric = true
	for c := 0; c < 1000; c++ {
		m.Add(1100, c, float64(c+1))
	}
	m.Add(1100, 1100, 1)
	m.Normalize()
	opts := DefaultOptions()
	opts.SampleFraction = 1.0 // structure sits in one row; sampling may miss it
	mx := NewMatrix(m, 1, opts)
	var horiz int64
	for _, b := range mx.Blobs {
		horiz += b.UnitCount[Horizontal]
	}
	if horiz < 4 {
		t.Fatalf("1000-run produced %d horizontal units, want >= 4", horiz)
	}
	back, err := DecodeMatrix(mx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTriplets(t, "long-run", back, m.ToGeneral())
}

func TestEmptyRowsAndRowJumps(t *testing.T) {
	// Nonzeros only on rows 0 and 900: the encoder must emit a row jump.
	m := matrix.NewCOO(1000, 1000, 4)
	m.Symmetric = true
	m.Add(0, 0, 1)
	m.Add(900, 2, 2)
	m.Add(900, 3, 3)
	m.Add(900, 900, 4)
	m.Normalize()
	mx := NewMatrix(m, 1, DefaultOptions())
	back, err := DecodeMatrix(mx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTriplets(t, "row-jump", back, m.ToGeneral())
}
