package csx

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// The row-major decode kernels, kept as the oracle: mulBlobSym and mulBlob
// must produce bitwise what these produce, sign of zero included. A strip is
// read run by run, row by row, into one sum per strip row that also takes the
// triangle's two halves, element by element, and lands in y at the end.

func refMulBlobSym(b *Blob, boundary int32, x, y, local []float64) {
	ctl := b.Ctl
	vals := b.Vals
	row := b.StartRow - 1
	col := int32(0)
	pos := 0
	i := 0
	for i < len(ctl) {
		flags := ctl[i]
		size := int(ctl[i+1])
		i += 2
		if flags&flagNR != 0 {
			if flags&flagRJMP != 0 {
				jump, n := readUvarint(ctl, i)
				i += n
				row += int32(jump) + 1
			} else {
				row++
			}
			col = 0
		}
		if pat := Pattern(flags & patternMask); pat == Strip2 || pat == Strip3 {
			h := pat.depth()
			var sums [3]float64
			for run := 0; run < size; run++ {
				d, n := readUvarint(ctl, i)
				i += n
				col += int32(d)
				w := int32(ctl[i])
				i++
				target := y // run-level routing
				if col < boundary {
					target = local
				}
				for rr := int32(0); rr < h; rr++ {
					xr := x[row+rr]
					for k := int32(0); k < w; k++ {
						v := vals[pos]
						c := col + k
						sums[rr] += v * x[c]
						target[c] += v * xr
						pos++
					}
				}
				col += w - 1
			}
			for k := int32(1); flags&flagTri != 0 && k < h; k++ {
				for j := int32(0); j < k; j++ {
					v := vals[pos]
					sums[k] += v * x[row+j]
					sums[j] += v * x[row+k]
					pos++
				}
			}
			for rr := int32(0); rr < h; rr++ {
				y[row+rr] += sums[rr]
			}
			continue
		}
		d, n := readUvarint(ctl, i)
		i += n
		col += int32(d)

		// Unit-level routing: all columns of a unit sit on one side.
		target := y
		if col < boundary {
			target = local
		}

		switch Pattern(flags & patternMask) {
		case Delta8:
			xr := x[row]
			v := vals[pos]
			sum := v * x[col]
			target[col] += v * xr
			for k := 1; k < size; k++ {
				col += int32(ctl[i])
				i++
				v = vals[pos+k]
				sum += v * x[col]
				target[col] += v * xr
			}
			y[row] += sum
			pos += size
		case Delta16:
			xr := x[row]
			v := vals[pos]
			sum := v * x[col]
			target[col] += v * xr
			for k := 1; k < size; k++ {
				col += int32(uint32(ctl[i]) | uint32(ctl[i+1])<<8)
				i += 2
				v = vals[pos+k]
				sum += v * x[col]
				target[col] += v * xr
			}
			y[row] += sum
			pos += size
		case Delta32:
			xr := x[row]
			v := vals[pos]
			sum := v * x[col]
			target[col] += v * xr
			for k := 1; k < size; k++ {
				col += int32(uint32(ctl[i]) | uint32(ctl[i+1])<<8 | uint32(ctl[i+2])<<16 | uint32(ctl[i+3])<<24)
				i += 4
				v = vals[pos+k]
				sum += v * x[col]
				target[col] += v * xr
			}
			y[row] += sum
			pos += size
		case Horizontal:
			xr := x[row]
			sum := 0.0
			for k := 0; k < size; k++ {
				v := vals[pos+k]
				c := col + int32(k)
				sum += v * x[c]
				target[c] += v * xr
			}
			y[row] += sum
			pos += size
			col += int32(size) - 1
		case Vertical:
			xv := x[col]
			tsum := 0.0
			for k := 0; k < size; k++ {
				v := vals[pos+k]
				r := row + int32(k)
				y[r] += v * xv
				tsum += v * x[r]
			}
			target[col] += tsum
			pos += size
		case Diagonal:
			for k := 0; k < size; k++ {
				v := vals[pos+k]
				r := row + int32(k)
				c := col + int32(k)
				y[r] += v * x[c]
				target[c] += v * x[r]
			}
			pos += size
		default:
			panic(fmt.Sprintf("csx: unknown pattern %d in ctl stream", flags&patternMask))
		}
	}
}

func refMulBlob(b *Blob, x, y []float64) {
	ctl := b.Ctl
	vals := b.Vals
	row := b.StartRow - 1
	col := int32(0)
	pos := 0
	i := 0
	for i < len(ctl) {
		flags := ctl[i]
		size := int(ctl[i+1])
		i += 2
		if flags&flagNR != 0 {
			if flags&flagRJMP != 0 {
				jump, n := readUvarint(ctl, i)
				i += n
				row += int32(jump) + 1
			} else {
				row++
			}
			col = 0
		}
		if pat := Pattern(flags & patternMask); pat == Strip2 || pat == Strip3 {
			h := pat.depth()
			var sums [3]float64
			for run := 0; run < size; run++ {
				d, n := readUvarint(ctl, i)
				i += n
				col += int32(d)
				w := int32(ctl[i])
				i++
				for rr := int32(0); rr < h; rr++ {
					for k := int32(0); k < w; k++ {
						sums[rr] += vals[pos] * x[col+k]
						pos++
					}
				}
				col += w - 1
			}
			for rr := int32(0); rr < h; rr++ {
				y[row+rr] += sums[rr]
			}
			continue
		}
		d, n := readUvarint(ctl, i)
		i += n
		col += int32(d)

		switch Pattern(flags & patternMask) {
		case Delta8:
			sum := vals[pos] * x[col]
			for k := 1; k < size; k++ {
				col += int32(ctl[i])
				i++
				sum += vals[pos+k] * x[col]
			}
			y[row] += sum
			pos += size
		case Delta16:
			sum := vals[pos] * x[col]
			for k := 1; k < size; k++ {
				col += int32(uint32(ctl[i]) | uint32(ctl[i+1])<<8)
				i += 2
				sum += vals[pos+k] * x[col]
			}
			y[row] += sum
			pos += size
		case Delta32:
			sum := vals[pos] * x[col]
			for k := 1; k < size; k++ {
				col += int32(uint32(ctl[i]) | uint32(ctl[i+1])<<8 | uint32(ctl[i+2])<<16 | uint32(ctl[i+3])<<24)
				i += 4
				sum += vals[pos+k] * x[col]
			}
			y[row] += sum
			pos += size
		case Horizontal:
			sum := 0.0
			for k := 0; k < size; k++ {
				sum += vals[pos+k] * x[col+int32(k)]
			}
			y[row] += sum
			pos += size
			col += int32(size) - 1
		case Vertical:
			xv := x[col]
			for k := 0; k < size; k++ {
				y[row+int32(k)] += vals[pos+k] * xv
			}
			pos += size
		case Diagonal:
			for k := 0; k < size; k++ {
				y[row+int32(k)] += vals[pos+k] * x[col+int32(k)]
			}
			pos += size
		default:
			panic(fmt.Sprintf("csx: unknown pattern %d in ctl stream", flags&patternMask))
		}
	}
}

// refSymProduct is one CSX-Sym operation on the calling goroutine with the
// reference body: every blob's multiplication (multiplyT's two arms), then
// the reduction phases exactly as assemble builds them. With wantDot it
// returns the fused xᵀy.
func refSymProduct(sm *SymMatrix, x, y []float64, wantDot bool) float64 {
	for tid, b := range sm.Blobs {
		local := sm.LV.Vecs[tid]
		if sm.Method == core.Naive {
			for r := b.StartRow; r < b.EndRow; r++ {
				local[r] = sm.DValues[r] * x[r]
			}
			refMulBlobSym(b, int32(sm.N)+1, x, local, local)
			continue
		}
		for r := b.StartRow; r < b.EndRow; r++ {
			y[r] = sm.DValues[r] * x[r]
		}
		refMulBlobSym(b, sm.Part.Start[tid], x, y, local)
	}
	var dot []float64
	if wantDot {
		dot = make([]float64, len(sm.Blobs)*core.DotStride)
	}
	for _, ph := range sm.LV.ReducePhases("ref", &x, &y, dot, 1) {
		for tid := range sm.Blobs {
			ph.Fn(tid)
		}
	}
	total := 0.0
	for t := 0; wantDot && t < len(sm.Blobs); t++ {
		total += dot[t*core.DotStride]
	}
	return total
}

// sameBits fails the test at the first element of got that is not bit for bit
// the element of want.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// signedOperand returns n values with exact zeros of both signs among them, so
// that products and row sums of either zero occur.
func signedOperand(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch x[i] = rng.NormFloat64(); {
		case i%11 == 3:
			x[i] = 0
		case i%13 == 5:
			x[i] = math.Copysign(0, -1)
		}
	}
	return x
}

// TestDecodeCellsMatchReference holds the column-major, windowed decode
// kernels to the row-major loops they replaced, bit for bit: whole products on
// suite matrices through the pool, every pattern and every block width on
// hand-assembled blobs, and the failure mode of a trusted blob broken by hand.
func TestDecodeCellsMatchReference(t *testing.T) {
	t.Run("suite", testSuiteMatchesReference)
	t.Run("units", testUnitsMatchReference)
	t.Run("trust", testBrokenBlobsPanic)
}

func testSuiteMatchesReference(t *testing.T) {
	scale := 0.2
	if testing.Short() {
		scale = 0.06
	}
	var names []string
	var mats []*matrix.COO
	for _, a := range analogs {
		names, mats = append(names, a.name), append(mats, a.build(t, scale))
	}
	names, mats = append(names, "offshore"), append(mats, suiteMatrix(t, "offshore", 0.25*scale))
	rng := rand.New(rand.NewSource(24))
	for _, p := range []int{1, 2, 3, 4, 7} {
		pool := parallel.NewPool(p)
		for i, m := range mats {
			s, err := core.FromCOO(m)
			if err != nil {
				t.Fatal(err)
			}
			x := signedOperand(rng, s.N)
			got, want := make([]float64, s.N), make([]float64, s.N)

			mx := NewMatrix(m, p, DefaultOptions())
			for _, b := range mx.Blobs {
				refMulBlob(b, x, want)
			}
			for pass := 1; pass <= 2; pass++ {
				mx.MulVec(pool, x, got)
				sameBits(t, fmt.Sprintf("%s p=%d CSX MulVec #%d", names[i], p, pass), got, want)
			}

			indexed := NewSym(s, p, core.Indexed, DefaultOptions())
			for _, method := range []core.ReductionMethod{core.Naive, core.EffectiveRanges, core.Indexed} {
				sm := indexed
				if method != core.Indexed { // the blobs do not depend on the method: encode once
					sm = &SymMatrix{N: s.N, DValues: s.DValues, Blobs: indexed.Blobs, Part: indexed.Part, Method: method,
						LV: core.NewLocalVectors(s.N, indexed.Part, method, nil), nnzLower: indexed.nnzLower}
				}
				label := fmt.Sprintf("%s p=%d CSX-Sym/%s", names[i], p, method)
				for j := range want {
					got[j], want[j] = math.NaN(), math.Inf(1)
				}
				wantDot := refSymProduct(sm, x, want, true)
				for pass := 1; pass <= 2; pass++ {
					sm.MulVec(pool, x, got)
					sameBits(t, fmt.Sprintf("%s MulVec #%d", label, pass), got, want)
				}
				gotDot := sm.MulVecDot(pool, x, got)
				sameBits(t, label+" MulVecDot y", got, want)
				sameBits(t, label+" MulVecDot", []float64{gotDot}, []float64{wantDot})
			}
		}
		pool.Close()
	}
}

// unitSpec is one unit of a hand-assembled blob: its pattern, anchor and
// element count, for a delta unit the size−1 column steps of its body, and
// for a strip its runs and triangle flag (its size is then derived).
type unitSpec struct {
	pat      Pattern
	row, col int32
	size     int
	deltas   []uint32
	runs     []stripRun
	tri      bool
}

// strip is the unitSpec of a strip of pattern pat at row with the runs (col,
// w) given pairwise.
func strip(pat Pattern, row int32, tri bool, runs ...int32) unitSpec {
	u := unitSpec{pat: pat, row: row, tri: tri}
	for k := 0; k < len(runs); k += 2 {
		u.runs = append(u.runs, stripRun{runs[k], runs[k+1]})
		u.size += int(pat.depth() * runs[k+1])
	}
	if tri {
		u.size += int(pat.depth() * (pat.depth() - 1) / 2)
	}
	return u
}

// assembleBlob writes units (sorted by anchor, as the encoder emits them)
// through the encoder's ctlWriter and draws their values from rng, zeros of
// both signs included.
func assembleBlob(rng *rand.Rand, startRow, endRow int32, units []unitSpec) *Blob {
	w := newCtlWriter(startRow)
	b := &Blob{StartRow: startRow, EndRow: endRow}
	for _, u := range units {
		b.Vals = append(b.Vals, signedOperand(rng, u.size)...)
		if u.pat == Strip2 || u.pat == Strip3 {
			w.strip(u.pat, u.row, u.runs, u.tri)
			continue
		}
		endCol := u.col
		if u.pat == Horizontal {
			endCol += int32(u.size) - 1
		}
		for _, d := range u.deltas {
			endCol += int32(d)
		}
		w.beginUnit(u.pat, u.size, u.row, u.col, endCol)
		for _, d := range u.deltas {
			switch u.pat {
			case Delta8:
				w.putDelta8(d)
			case Delta16:
				w.putDelta16(d)
			default:
				w.putDelta32(d)
			}
		}
	}
	b.Ctl, b.NNZ = w.buf, len(b.Vals)
	return b
}

func steps(n int, d uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func testUnitsMatchReference(t *testing.T) {
	const n = 140000 // room for a 32-bit delta and a three-byte column varint
	var strips []unitSpec
	for w := int32(1); w <= maxUnitSize; w++ { // every run width, with and without a triangle
		strips = append(strips, strip(Strip3, 300+3*(w-1), w%2 == 0, w*7%50, w))
	}
	for w := int32(1); w <= maxUnitSize; w++ {
		strips = append(strips, strip(Strip2, 1100+2*(w-1), w%3 == 0, w*5%40, w))
	}
	cases := []struct {
		name     string
		boundary int32 // a legal boundary strictly inside the blob's columns, 0 for none
		units    []unitSpec
	}{
		{"wide deltas", 0, []unitSpec{
			{pat: Delta8, row: 500, col: 2, size: 4, deltas: []uint32{1, 255, 3}},
			{pat: Delta16, row: 70000, col: 5, size: 4, deltas: []uint32{300, 1000, 65535}},
			{pat: Delta32, row: 139000, col: 0, size: 3, deltas: []uint32{65536, 70000}},
			{pat: Delta8, row: 139000, col: 135537, size: 1},
		}},
		{"row jump", 0, []unitSpec{{pat: Delta8, row: 3, col: 1, size: 2, deltas: []uint32{1}}, {pat: Horizontal, row: 500, col: 17, size: 5},
			{pat: Delta8, row: 501, col: 0, size: 1}, {pat: Vertical, row: 100000, col: 9, size: 4}}},
		{"multi-byte column delta", 600, []unitSpec{{pat: Horizontal, row: 138000, col: 5, size: 3}, {pat: Horizontal, row: 138000, col: 700, size: 3},
			strip(Strip3, 138000, true, 70000, 6, 70010, 2), {pat: Delta8, row: 138003, col: 137000, size: 2, deltas: []uint32{9}}}},
		{"sub-diagonal runs", 0, []unitSpec{{pat: Diagonal, row: 10, col: 9, size: 40}, {pat: Diagonal, row: 60, col: 55, size: 30},
			{pat: Diagonal, row: 100, col: 0, size: 7}}},
		{"vertical", 8, []unitSpec{{pat: Vertical, row: 100, col: 7, size: 30}, {pat: Vertical, row: 100, col: 99, size: 1}}},
		{"strips of every run width", 0, strips},
		{"strips of many runs", 500, []unitSpec{strip(Strip3, 900, true, 3, 6, 20, 1, 495, 5, 500, 9, 600, 255, 855, 12),
			strip(Strip3, 903, false, 0, 2, 498, 2, 500, 2), strip(Strip2, 906, true, 10, 3, 499, 1, 500, 1, 904, 2),
			strip(Strip3, 908, true), strip(Strip2, 911, true), {pat: Delta8, row: 913, col: 1, size: 2, deltas: []uint32{7}},
			strip(Strip2, 914, false, 1, 1)}},
		{"size cap", 300, []unitSpec{{pat: Horizontal, row: 400, col: 10, size: 255}, {pat: Delta8, row: 401, col: 0, size: 255, deltas: steps(254, 1)},
			{pat: Delta16, row: 402, col: 0, size: 255, deltas: steps(254, 1)}, {pat: Vertical, row: 403, col: 350, size: 255},
			{pat: Diagonal, row: 700, col: 300, size: 255}}},
	}
	rng := rand.New(rand.NewSource(7))
	zeros := make([]float64, n) // every product a zero of either sign
	for i := range zeros {
		zeros[i] = math.Copysign(0, float64(i%3)-1)
	}
	for _, c := range cases {
		endRow, plain := int32(0), true // generous: no unit spans more rows than it has elements, plus three
		for _, u := range c.units {
			endRow = max(endRow, u.row+int32(u.size)+3)
			plain = plain && !u.tri
		}
		b := assembleBlob(rng, c.units[0].row, endRow, c.units)
		boundaries := []int32{0, n + 1}
		if c.boundary > 0 {
			boundaries = append(boundaries, c.boundary)
		}
		for _, boundary := range boundaries {
			if err := ValidateSymBlob(b, n, boundary, nil); err != nil {
				t.Fatalf("%s: the hand-assembled blob is not a legal CSX-Sym blob at boundary %d: %v", c.name, boundary, err)
			}
			for _, x := range [][]float64{signedOperand(rng, n), zeros} {
				y0, l0 := signedOperand(rng, n), signedOperand(rng, n)
				if &x[0] == &zeros[0] {
					y0, l0 = zeros, zeros
				}
				// Separate local vector, then (the naive method) the local vector as y.
				for _, aliased := range []bool{false, true} {
					gotY, wantY := append([]float64(nil), y0...), append([]float64(nil), y0...)
					gotL, wantL := append([]float64(nil), l0...), append([]float64(nil), l0...)
					if aliased {
						gotL, wantL = gotY, wantY
					}
					mulBlobSym(b, boundary, x, gotY, gotL)
					refMulBlobSym(b, boundary, x, wantY, wantL)
					label := fmt.Sprintf("%s, boundary %d, local is y: %v", c.name, boundary, aliased)
					sameBits(t, label+": y", gotY, wantY)
					sameBits(t, label+": local", gotL, wantL)
				}
				if !plain { // a triangle belongs to CSX-Sym
					continue
				}
				gotY, wantY := append([]float64(nil), y0...), append([]float64(nil), y0...)
				mulBlob(b, x, gotY)
				refMulBlob(b, x, wantY)
				sameBits(t, c.name+": unsymmetric kernel", gotY, wantY)
			}
		}
	}
}

// panicOf runs f and returns what it panicked with, nil if it returned.
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// testBrokenBlobsPanic: what the kernels are entitled to assume is refused by
// ValidateSymBlob before they see it, and a trusted blob broken by hand makes
// them panic on a checked slice expression — the kernels hold no unsafe code,
// so there is no third outcome.
func testBrokenBlobsPanic(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(3))
	refused := func(why, wantErr string, boundary int32, u unitSpec) {
		t.Helper()
		b := assembleBlob(rng, u.row, n, []unitSpec{u})
		if err := ValidateSymBlob(b, n, boundary, nil); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: ValidateSymBlob returned %v, want an error naming %q", why, err, wantErr)
		}
	}
	refused("a run across the write boundary", "straddle", 15, unitSpec{pat: Horizontal, row: 50, col: 10, size: 10})
	refused("a strip run across the write boundary", "straddle", 12, strip(Strip3, 50, true, 2, 3, 10, 6))
	refused("a run that leaves the triangle", "strict lower triangle", 0, unitSpec{pat: Horizontal, row: 50, col: 45, size: 10})
	refused("a strip that reaches its own rows", "strict lower triangle", 0, strip(Strip3, 50, false, 46, 6))
	refused("a strip of nothing", "no runs and no triangle", 0, strip(Strip2, 50, false))
	refused("a triangle past the blob", "triangle outside", 0, strip(Strip3, 62, true, 10, 2))

	x, y, local := signedOperand(rng, n), make([]float64, n), make([]float64, n)
	for _, u := range []unitSpec{{pat: Delta8, row: 50, col: 10, size: 18, deltas: steps(17, 1)}, {pat: Horizontal, row: 50, col: 10, size: 18},
		{pat: Vertical, row: 40, col: 10, size: 12}, {pat: Diagonal, row: 40, col: 10, size: 12},
		strip(Strip2, 50, false, 2, 3, 10, 6), strip(Strip3, 50, false, 2, 3, 10, 6), strip(Strip3, 50, true, 2, 3, 10, 6)} {
		short := assembleBlob(rng, u.row, n, []unitSpec{u})
		short.Vals = short.Vals[:len(short.Vals)-1]
		if panicOf(func() { mulBlobSym(short, 0, x, y, local) }) == nil {
			t.Errorf("%s: mulBlobSym ran past a value array one short of its ctl stream", u.pat)
		}
		if panicOf(func() { mulBlob(short, x, y) }) == nil && !u.tri {
			t.Errorf("%s: mulBlob ran past a value array one short of its ctl stream", u.pat)
		}
	}
	for _, u := range []unitSpec{{pat: Horizontal, row: 50, col: 60, size: 6}, strip(Strip2, 50, false, 60, 6), strip(Strip3, 50, false, 60, 6)} {
		out := assembleBlob(rng, 50, n, []unitSpec{u}) // columns [60, 66) of 64
		if panicOf(func() { mulBlobSym(out, 0, x, y, local) }) == nil {
			t.Errorf("%s: mulBlobSym accepted a column window past len(x)", u.pat)
		}
		if panicOf(func() { mulBlob(out, x, y) }) == nil {
			t.Errorf("%s: mulBlob accepted a column window past len(x)", u.pat)
		}
	}
}
