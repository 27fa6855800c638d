package csx

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/matrix"
)

// The errors a strip the kernels must not run is refused with.
var (
	ErrEmptyStrip      = errors.New("csx: strip with no runs and no triangle")
	ErrTriangleRows    = errors.New("csx: strip triangle outside the blob's rows")
	ErrTriangleInPlain = errors.New("csx: triangle flag in a plain CSX blob")
	ErrStraddle        = errors.New("csx: run straddles the write boundary")
)

// blobWalk is the shared ctl-stream walker behind DecodeToCOO and
// ValidateSymBlob: it decodes unit heads and bodies exactly like the hot
// multiply kernels but checks every byte it consumes, so malformed streams
// (truncated heads or varints, zero-size units, unknown patterns, wild jumps,
// empty strips, triangles outside the blob or in a plain blob) surface as
// errors instead of panics or out-of-range accesses. emit is called once per
// element in ctl order; unitDone, if non-nil, once per unit whose body
// decoded, with its pattern, size, anchor and column extremes or strip runs
// (the hook the CSX-Sym boundary-legality validation, UnitDump and UnitMix
// hang off; the unit is the walker's, valid for the call). ctl bytes reach
// this walker from disk, so it is the untrusted-input gate in front of the
// kernels, which may then assume validated streams.
func blobWalk(b *Blob, rows, cols int, sym bool, emit func(r, c int32) error, unitDone func(u *walkedUnit) error) error {
	ctl, row, col, i := b.Ctl, b.StartRow-1, int32(0), 0
	var u walkedUnit
	// column reads the next column delta and moves col by it.
	column := func() error {
		d, n := uvarint(ctl[i:])
		if n <= 0 {
			return fmt.Errorf("csx: truncated or oversized column-delta varint at byte %d", i)
		}
		if d > uint32(cols) {
			return fmt.Errorf("csx: column delta %d beyond %d columns at byte %d", d, cols, i)
		}
		i += n
		col += int32(d)
		return nil
	}
	for i < len(ctl) {
		if i+2 > len(ctl) {
			return fmt.Errorf("csx: truncated unit head at byte %d", i)
		}
		flags, size := ctl[i], int(ctl[i+1])
		i += 2
		if flags&flagNR != 0 {
			if flags&flagRJMP != 0 {
				jump, n := uvarint(ctl[i:])
				if n <= 0 {
					return fmt.Errorf("csx: truncated or oversized row-jump varint at byte %d", i)
				}
				i += n
				if jump > uint32(rows) {
					return fmt.Errorf("csx: row jump %d beyond %d rows at byte %d", jump, rows, i-n)
				}
				row += int32(jump) + 1
			} else {
				row++
			}
			col = 0
		}
		pat := Pattern(flags & patternMask)
		tri := flags&flagTri != 0
		u = walkedUnit{pat: pat, size: size, row: row, col: row, runs: u.runs[:0], tri: tri}
		if pat != Strip2 && pat != Strip3 {
			if size == 0 {
				return fmt.Errorf("csx: zero-size unit at byte %d", i-2)
			}
			if err := column(); err != nil {
				return err
			}
			u.col, u.minCol, u.maxCol = col, col, col
		}
		switch pat {
		case Delta8, Delta16, Delta32:
			width := 1 << (pat - Delta8) // 1, 2 or 4 bytes
			if err := emit(row, col); err != nil {
				return err
			}
			for k := 1; k < size; k++ {
				if i+width > len(ctl) {
					return fmt.Errorf("csx: truncated delta body at byte %d", i)
				}
				var dd uint32
				for j := width - 1; j >= 0; j-- {
					dd = dd<<8 | uint32(ctl[i+j])
				}
				i += width
				col += int32(dd)
				if err := emit(row, col); err != nil {
					return err
				}
				u.minCol, u.maxCol = min(u.minCol, col), max(u.maxCol, col)
			}
		case Horizontal:
			for k := 0; k < size; k++ {
				if err := emit(row, col+int32(k)); err != nil {
					return err
				}
			}
			col += int32(size) - 1
			u.maxCol = col
		case Vertical:
			for k := 0; k < size; k++ {
				if err := emit(row+int32(k), col); err != nil {
					return err
				}
			}
		case Diagonal:
			for k := 0; k < size; k++ {
				if err := emit(row+int32(k), col+int32(k)); err != nil {
					return err
				}
			}
			u.maxCol = col + int32(size) - 1
		case Strip2, Strip3:
			h := pat.depth()
			switch {
			case tri && !sym:
				return fmt.Errorf("%w at byte %d", ErrTriangleInPlain, i-2)
			case size == 0 && !tri:
				return fmt.Errorf("%w at byte %d", ErrEmptyStrip, i-2)
			case tri && (row < b.StartRow || row+h > b.EndRow):
				return fmt.Errorf("%w: rows [%d,%d) at byte %d, blob rows [%d,%d)", ErrTriangleRows, row, row+h, i-2, b.StartRow, b.EndRow)
			}
			u.size = 0
			for k := 0; k < size; k++ {
				if err := column(); err != nil {
					return err
				}
				if i >= len(ctl) || ctl[i] == 0 {
					return fmt.Errorf("csx: truncated or zero-width strip run at byte %d", i)
				}
				w := int32(ctl[i])
				i++
				if k == 0 {
					u.col = col
				}
				u.runs = append(u.runs, stripRun{col, w})
				for rr := int32(0); rr < h; rr++ {
					for j := int32(0); j < w; j++ {
						if err := emit(row+rr, col+j); err != nil {
							return err
						}
					}
				}
				u.size += int(h * w)
				col += w - 1
			}
			for k := int32(1); tri && k < h; k++ {
				for j := int32(0); j < k; j++ {
					if err := emit(row+k, row+j); err != nil {
						return err
					}
				}
				u.size += int(k)
			}
		default:
			return fmt.Errorf("csx: unknown pattern %d at byte %d", pat, i)
		}
		if tri && pat < Strip2 {
			return fmt.Errorf("csx: triangle flag on a %s unit before byte %d", pat, i)
		}
		if unitDone != nil {
			if err := unitDone(&u); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkedUnit is what blobWalk hands its per-unit hook: the unit's pattern and
// element count, its anchor (a strip's first row and first run's column, or
// its row when it has no runs), the extremes of the columns a unit other than
// a strip covers, and a strip's runs and triangle flag.
type walkedUnit struct {
	pat            Pattern
	size           int
	row, col       int32
	minCol, maxCol int32
	runs           []stripRun
	tri            bool
}

// DecodeToCOO reconstructs the exact (row, col, value) triplets a blob
// encodes, in ctl order. It is the structural inverse of encodeRange, used
// by round-trip tests, the mtx-info dumper and format debugging: MulVec
// equality can hide coordinate errors that cancel, coordinate equality
// cannot. Malformed ctl bytes — including out-of-range or (for symmetric
// blobs) upper-triangular coordinates — return errors, never panic.
func DecodeToCOO(b *Blob, rows, cols int, symmetric bool) (*matrix.COO, error) {
	nnzHint := b.NNZ
	if nnzHint < 0 || nnzHint > len(b.Vals) {
		nnzHint = len(b.Vals)
	}
	out := matrix.NewCOO(rows, cols, nnzHint)
	out.Symmetric = symmetric
	vals := b.Vals
	pos := 0
	emit := func(r, c int32) error {
		if pos >= len(vals) {
			return fmt.Errorf("csx: values exhausted at unit element (%d,%d)", r, c)
		}
		if r < 0 || int(r) >= rows || c < 0 || int(c) >= cols {
			return fmt.Errorf("csx: unit element (%d,%d) outside %dx%d", r, c, rows, cols)
		}
		if symmetric && c > r {
			return fmt.Errorf("csx: unit element (%d,%d) in upper triangle of symmetric blob", r, c)
		}
		out.Add(int(r), int(c), vals[pos])
		pos++
		return nil
	}
	if err := blobWalk(b, rows, cols, symmetric, emit, nil); err != nil {
		return nil, err
	}
	if pos != len(vals) {
		return nil, fmt.Errorf("csx: %d values not consumed by ctl stream", len(vals)-pos)
	}
	return out.Normalize(), nil
}

// ValidateSymBlob checks every invariant the CSX-Sym multiply kernel
// (mulBlobSym) assumes about blob t of an n×n matrix and therefore does not
// re-check per element on the hot path:
//
//   - the ctl stream decodes cleanly (no truncation, unknown patterns, …),
//   - every element sits in the strict lower triangle, inside the blob's
//     declared row range [StartRow, EndRow),
//   - no unit or strip run straddles the local/direct write boundary (the
//     Fig. 8 legality rule): all of its columns lie on one side of
//     `boundary`, since the kernel routes it through one target vector,
//   - a strip has runs or a triangle, and its triangle, which the kernel
//     writes into y, lies inside the blob's rows,
//   - the value array length matches both the elements the ctl stream emits
//     and the blob's declared NNZ.
//
// ReadSymMatrix runs it on every deserialized blob, which is what lets the
// kernels keep their builder-invariant panics while untrusted bytes can
// never reach them. touched, if non-nil, accumulates the distinct columns
// < boundary the blob writes (the indexed reduction's rebuild input).
func ValidateSymBlob(b *Blob, n int, boundary int32, touched map[int32]struct{}) error {
	if b.StartRow < 0 || b.EndRow < b.StartRow || int(b.EndRow) > n {
		return fmt.Errorf("csx: blob row range [%d,%d) invalid for %d rows", b.StartRow, b.EndRow, n)
	}
	if b.NNZ != len(b.Vals) {
		return fmt.Errorf("csx: blob declares %d elements but stores %d values", b.NNZ, len(b.Vals))
	}
	count := 0
	emit := func(r, c int32) error {
		if r < b.StartRow || r >= b.EndRow {
			return fmt.Errorf("csx: unit element (%d,%d) outside blob row range [%d,%d)", r, c, b.StartRow, b.EndRow)
		}
		if c < 0 || c >= r {
			return fmt.Errorf("csx: unit element (%d,%d) not in the strict lower triangle", r, c)
		}
		if count >= len(b.Vals) {
			return fmt.Errorf("csx: values exhausted at unit element (%d,%d)", r, c)
		}
		count++
		if touched != nil && c < boundary {
			touched[c] = struct{}{}
		}
		return nil
	}
	straddles := func(lo, hi int32) error {
		if lo < boundary && hi >= boundary {
			return fmt.Errorf("%w: columns [%d,%d] across %d", ErrStraddle, lo, hi, boundary)
		}
		return nil
	}
	unitDone := func(u *walkedUnit) error {
		if u.pat < Strip2 {
			return straddles(u.minCol, u.maxCol)
		}
		for _, r := range u.runs {
			if err := straddles(r.col, r.col+r.w-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := blobWalk(b, n, n, true, emit, unitDone); err != nil {
		return err
	}
	if count != len(b.Vals) {
		return fmt.Errorf("csx: %d values not consumed by ctl stream", len(b.Vals)-count)
	}
	return nil
}

// DecodeMatrix reconstructs the full triplet set of an unsymmetric CSX
// matrix from all its blobs.
func DecodeMatrix(mx *Matrix) (*matrix.COO, error) {
	out := matrix.NewCOO(mx.Rows, mx.Cols, mx.NNZ())
	for _, b := range mx.Blobs {
		part, err := DecodeToCOO(b, mx.Rows, mx.Cols, false)
		if err != nil {
			return nil, err
		}
		for k := range part.Val {
			out.Add(int(part.RowIdx[k]), int(part.ColIdx[k]), part.Val[k])
		}
	}
	return out.Normalize(), nil
}

// DecodeSymMatrix reconstructs the symmetric lower-triangular triplet set of
// a CSX-Sym matrix (strict lower triangle from the blobs, diagonal from
// DValues; zero diagonal slots are skipped).
func DecodeSymMatrix(sm *SymMatrix) (*matrix.COO, error) {
	out := matrix.NewCOO(sm.N, sm.N, sm.NNZLower()+sm.N)
	out.Symmetric = true
	for _, b := range sm.Blobs {
		part, err := DecodeToCOO(b, sm.N, sm.N, true)
		if err != nil {
			return nil, err
		}
		for k := range part.Val {
			out.Add(int(part.RowIdx[k]), int(part.ColIdx[k]), part.Val[k])
		}
	}
	for r, v := range sm.DValues {
		if v != 0 {
			out.Add(r, r, v)
		}
	}
	return out.Normalize(), nil
}

// walkUnits runs blobWalk for its per-unit hook alone: no element callback
// and no matrix dimensions to hold the jumps to.
func walkUnits(b *Blob, unitDone func(u *walkedUnit) error) error {
	return blobWalk(b, math.MaxInt32, math.MaxInt32, true, func(r, c int32) error { return nil }, unitDone)
}

var errDumpFull = errors.New("csx: unit dump full")

// UnitDump renders a human-readable listing of the first maxUnits units of a
// blob (debugging/teaching aid used by mtx-info -dump). A stream blobWalk
// refuses is listed up to the unit it broke in, the walker's error last.
func UnitDump(b *Blob, maxUnits int) string {
	var out strings.Builder
	count := 0
	err := walkUnits(b, func(u *walkedUnit) error {
		if count >= maxUnits {
			return errDumpFull
		}
		fmt.Fprintf(&out, "unit %3d: row=%d col=%d pat=%s size=%d", count, u.row, u.col, u.pat, u.size)
		if u.pat >= Strip2 {
			fmt.Fprintf(&out, " runs=%d tri=%v", len(u.runs), u.tri)
		}
		out.WriteByte('\n')
		count++
		return nil
	})
	if err != nil && !errors.Is(err, errDumpFull) {
		fmt.Fprintf(&out, "<%v>\n", err)
	}
	return out.String()
}

// unitMix counts a blob's units and stored elements by pattern, and its
// strips' runs and triangles: what the decode kernels will run.
type unitMix struct {
	units, elems [numPatterns]int64
	runs, tri    int64 // strip runs; strips closed by a triangle
}

func mixOf(b *Blob) (m unitMix, err error) {
	err = walkUnits(b, func(u *walkedUnit) error {
		m.units[u.pat]++
		m.elems[u.pat] += int64(u.size)
		m.runs += int64(len(u.runs))
		if u.tri {
			m.tri++
		}
		return nil
	})
	return m, err
}

// census reports the units, the strips, the mean runs per strip and the
// per-cent of strips a triangle closes.
func (m *unitMix) census() (units, strips int64, runsPerStrip, triShare float64) {
	for _, n := range m.units {
		units += n
	}
	strips = m.units[Strip2] + m.units[Strip3]
	d := float64(max(strips, 1))
	return units, strips, float64(m.runs) / d, 100 * float64(m.tri) / d
}

// UnitMix renders the unit mix of a blob: its units and strips, the mean runs
// per strip and the share closed by a triangle, then per pattern the units,
// the stored elements, their share of the blob and the mean unit size.
// mtx-info -dump prints it before the unit listing; a stream blobWalk refuses
// is counted up to the error, printed last.
func UnitMix(b *Blob) string {
	m, err := mixOf(b)
	var all int64
	for _, n := range m.elems {
		all += n
	}
	share := func(elems int64) float64 { return 100 * float64(elems) / float64(max(all, 1)) }
	var out strings.Builder
	units, strips, runs, tri := m.census()
	fmt.Fprintf(&out, "rows [%d,%d): %d units, %d strips, %.2f runs per strip, %.1f%% closed by a triangle\n",
		b.StartRow, b.EndRow, units, strips, runs, tri)
	fmt.Fprintf(&out, "%-14s %9s %10s %7s %10s\n", "pattern", "units", "elements", "share", "mean size")
	for p := Pattern(0); p < numPatterns; p++ {
		units, elems := m.units[p], m.elems[p]
		if units == 0 {
			continue
		}
		fmt.Fprintf(&out, "%-14s %9d %10d %6.1f%% %10.1f\n", p, units, elems, share(elems), float64(elems)/float64(units))
	}
	if err != nil {
		fmt.Fprintf(&out, "<%v>\n", err)
	}
	return out.String()
}
