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

// The row-major decode kernels of PR 23, kept verbatim as the oracle (only
// the names changed): mulBlobSym and mulBlob must produce bitwise what these
// produce, sign of zero included.

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
		case AntiDiagonal:
			for k := 0; k < size; k++ {
				v := vals[pos+k]
				r := row + int32(k)
				c := col - int32(k)
				y[r] += v * x[c]
				target[c] += v * x[r]
			}
			pos += size
		case Block2:
			w := size / 2
			for rr := 0; rr < 2; rr++ {
				r := row + int32(rr)
				xr := x[r]
				sum := 0.0
				for k := 0; k < w; k++ {
					v := vals[pos]
					c := col + int32(k)
					sum += v * x[c]
					target[c] += v * xr
					pos++
				}
				y[r] += sum
			}
			col += int32(w) - 1
		case Block3:
			w := size / 3
			for rr := 0; rr < 3; rr++ {
				r := row + int32(rr)
				xr := x[r]
				sum := 0.0
				for k := 0; k < w; k++ {
					v := vals[pos]
					c := col + int32(k)
					sum += v * x[c]
					target[c] += v * xr
					pos++
				}
				y[r] += sum
			}
			col += int32(w) - 1
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
		case AntiDiagonal:
			for k := 0; k < size; k++ {
				y[row+int32(k)] += vals[pos+k] * x[col-int32(k)]
			}
			pos += size
		case Block2:
			w := size / 2
			for rr := 0; rr < 2; rr++ {
				sum := 0.0
				for k := 0; k < w; k++ {
					sum += vals[pos] * x[col+int32(k)]
					pos++
				}
				y[row+int32(rr)] += sum
			}
			col += int32(w) - 1
		case Block3:
			w := size / 3
			for rr := 0; rr < 3; rr++ {
				sum := 0.0
				for k := 0; k < w; k++ {
					sum += vals[pos] * x[col+int32(k)]
					pos++
				}
				y[row+int32(rr)] += sum
			}
			col += int32(w) - 1
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
// element count, and for a delta unit the size−1 column steps of its body.
type unitSpec struct {
	pat      Pattern
	row, col int32
	size     int
	deltas   []uint32
}

// assembleBlob writes units (sorted by anchor, as the encoder emits them)
// through the encoder's ctlWriter and draws their values from rng, zeros of
// both signs included.
func assembleBlob(rng *rand.Rand, startRow, endRow int32, units []unitSpec) *Blob {
	w := newCtlWriter(startRow)
	b := &Blob{StartRow: startRow, EndRow: endRow}
	for _, u := range units {
		endCol := u.col
		switch u.pat {
		case Horizontal:
			endCol += int32(u.size) - 1
		case Block2:
			endCol += int32(u.size/2) - 1
		case Block3:
			endCol += int32(u.size/3) - 1
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
		b.Vals = append(b.Vals, signedOperand(rng, u.size)...)
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
	var blocks []unitSpec
	for w := 1; w <= 85; w++ { // every Block3 width the size byte can carry
		blocks = append(blocks, unitSpec{pat: Block3, row: int32(300 + 3*(w-1)), col: int32(w * 7 % 50), size: 3 * w})
	}
	for w := 1; w <= 127; w++ { // and every Block2 width
		blocks = append(blocks, unitSpec{pat: Block2, row: int32(600 + 2*(w-1)), col: int32(w * 5 % 40), size: 2 * w})
	}
	cases := []struct {
		name     string
		boundary int32 // a legal boundary strictly inside the blob's columns, 0 for none
		units    []unitSpec
	}{
		{"anti-diagonal", 0, []unitSpec{{pat: AntiDiagonal, row: 40, col: 30, size: 12}, {pat: AntiDiagonal, row: 60, col: 58, size: 3}}},
		{"wide deltas", 0, []unitSpec{
			{pat: Delta8, row: 500, col: 2, size: 4, deltas: []uint32{1, 255, 3}},
			{pat: Delta16, row: 70000, col: 5, size: 4, deltas: []uint32{300, 1000, 65535}},
			{pat: Delta32, row: 139000, col: 0, size: 3, deltas: []uint32{65536, 70000}},
			{pat: Delta8, row: 139000, col: 135537, size: 1},
		}},
		{"row jump", 0, []unitSpec{{pat: Delta8, row: 3, col: 1, size: 2, deltas: []uint32{1}}, {pat: Horizontal, row: 500, col: 17, size: 5},
			{pat: Delta8, row: 501, col: 0, size: 1}, {pat: Vertical, row: 100000, col: 9, size: 4}}},
		{"multi-byte column delta", 600, []unitSpec{{pat: Horizontal, row: 138000, col: 5, size: 3}, {pat: Horizontal, row: 138000, col: 700, size: 3},
			{pat: Block3, row: 138000, col: 70000, size: 18}, {pat: Delta8, row: 138000, col: 137000, size: 2, deltas: []uint32{9}}}},
		{"sub-diagonal runs", 0, []unitSpec{{pat: Diagonal, row: 10, col: 9, size: 40}, {pat: Diagonal, row: 60, col: 55, size: 30},
			{pat: Diagonal, row: 100, col: 0, size: 7}}},
		{"vertical", 8, []unitSpec{{pat: Vertical, row: 100, col: 7, size: 30}, {pat: Vertical, row: 100, col: 99, size: 1}}},
		{"blocks of every width", 0, blocks},
		{"size cap", 300, []unitSpec{{pat: Horizontal, row: 400, col: 10, size: 255}, {pat: Delta8, row: 401, col: 0, size: 255, deltas: steps(254, 1)},
			{pat: Delta16, row: 402, col: 0, size: 255, deltas: steps(254, 1)}, {pat: Vertical, row: 403, col: 350, size: 255},
			{pat: Diagonal, row: 700, col: 300, size: 255}, {pat: AntiDiagonal, row: 1000, col: 999, size: 255}}},
	}
	rng := rand.New(rand.NewSource(7))
	zeros := make([]float64, n) // every product a zero of either sign
	for i := range zeros {
		zeros[i] = math.Copysign(0, float64(i%3)-1)
	}
	for _, c := range cases {
		endRow := int32(0) // generous: no unit spans more rows than it has elements
		for _, u := range c.units {
			endRow = max(endRow, u.row+int32(u.size))
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
	refused("a block across the write boundary", "straddle", 12, unitSpec{pat: Block3, row: 50, col: 10, size: 18})
	refused("a run that leaves the triangle", "strict lower triangle", 0, unitSpec{pat: Horizontal, row: 50, col: 45, size: 10})
	refused("a block that reaches its own rows", "strict lower triangle", 0, unitSpec{pat: Block3, row: 50, col: 46, size: 18})
	refused("a block of seven elements", "not divisible", 0, unitSpec{pat: Block3, row: 50, col: 10, size: 7})

	x, y, local := signedOperand(rng, n), make([]float64, n), make([]float64, n)
	for _, pat := range []Pattern{Delta8, Horizontal, Vertical, Diagonal, Block2, Block3} {
		u := unitSpec{pat: pat, row: 50, col: 10, size: 18}
		if pat == Delta8 {
			u.deltas = steps(17, 1)
		}
		if pat == Vertical || pat == Diagonal {
			u.row, u.size = 40, 12
		}
		short := assembleBlob(rng, u.row, n, []unitSpec{u})
		short.Vals = short.Vals[:len(short.Vals)-1]
		if panicOf(func() { mulBlobSym(short, 0, x, y, local) }) == nil {
			t.Errorf("%s: mulBlobSym ran past a value array one short of its ctl stream", pat)
		}
		if panicOf(func() { mulBlob(short, x, y) }) == nil {
			t.Errorf("%s: mulBlob ran past a value array one short of its ctl stream", pat)
		}
	}
	for pat, size := range map[Pattern]int{Horizontal: 6, Block2: 12, Block3: 18} {
		out := assembleBlob(rng, 50, n, []unitSpec{{pat: pat, row: 50, col: 60, size: size}}) // columns [60, 66) of 64
		if panicOf(func() { mulBlobSym(out, 0, x, y, local) }) == nil {
			t.Errorf("%s: mulBlobSym accepted a column window past len(x)", pat)
		}
		if panicOf(func() { mulBlob(out, x, y) }) == nil {
			t.Errorf("%s: mulBlob accepted a column window past len(x)", pat)
		}
	}
}
