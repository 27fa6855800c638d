package csx

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/matrix"
)

// blobWalk is the shared ctl-stream walker behind DecodeToCOO and
// ValidateSymBlob: it decodes unit heads and bodies exactly like the hot
// multiply kernels but checks every byte it consumes, so malformed streams
// (truncated heads or varints, zero-size units, unknown patterns, wild jumps)
// surface as errors instead of panics or out-of-range accesses. emit is
// called once per element in ctl order; unitDone, if non-nil, once per unit
// whose body decoded, with its pattern, size, anchor and column extremes (the
// hook the CSX-Sym boundary-legality validation, UnitDump and UnitMix hang
// off). ctl bytes reach this walker from disk, so it is the untrusted-input
// gate in front of the kernels, which may then assume validated streams.
func blobWalk(b *Blob, rows, cols int, emit func(r, c int32) error, unitDone func(u walkedUnit) error) error {
	ctl := b.Ctl
	row := b.StartRow - 1
	col := int32(0)
	i := 0
	for i < len(ctl) {
		if i+2 > len(ctl) {
			return fmt.Errorf("csx: truncated unit head at byte %d", i)
		}
		flags := ctl[i]
		size := int(ctl[i+1])
		i += 2
		if size == 0 {
			return fmt.Errorf("csx: zero-size unit at byte %d", i-2)
		}
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
		d, n := uvarint(ctl[i:])
		if n <= 0 {
			return fmt.Errorf("csx: truncated or oversized column-delta varint at byte %d", i)
		}
		i += n
		if d > uint32(cols) {
			return fmt.Errorf("csx: column delta %d beyond %d columns at byte %d", d, cols, i-n)
		}
		col += int32(d)
		pat := Pattern(flags & patternMask)
		u := walkedUnit{pat: pat, size: size, row: row, col: col, minCol: col, maxCol: col}
		switch pat {
		case Delta8, Delta16, Delta32:
			width := 1
			switch pat {
			case Delta16:
				width = 2
			case Delta32:
				width = 4
			}
			if err := emit(row, col); err != nil {
				return err
			}
			for k := 1; k < size; k++ {
				if i+width > len(ctl) {
					return fmt.Errorf("csx: truncated delta body at byte %d", i)
				}
				var dd uint32
				switch width {
				case 1:
					dd = uint32(ctl[i])
				case 2:
					dd = uint32(ctl[i]) | uint32(ctl[i+1])<<8
				default:
					dd = uint32(ctl[i]) | uint32(ctl[i+1])<<8 | uint32(ctl[i+2])<<16 | uint32(ctl[i+3])<<24
				}
				i += width
				col += int32(dd)
				if err := emit(row, col); err != nil {
					return err
				}
				if col < u.minCol {
					u.minCol = col
				}
				if col > u.maxCol {
					u.maxCol = col
				}
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
		case AntiDiagonal:
			for k := 0; k < size; k++ {
				if err := emit(row+int32(k), col-int32(k)); err != nil {
					return err
				}
			}
			u.minCol = col - int32(size) + 1
		case Block2, Block3:
			depth := int32(2)
			if pat == Block3 {
				depth = 3
			}
			if size%int(depth) != 0 {
				return fmt.Errorf("csx: block unit size %d not divisible by %d", size, depth)
			}
			w := int32(size) / depth
			for rr := int32(0); rr < depth; rr++ {
				for k := int32(0); k < w; k++ {
					if err := emit(row+rr, col+k); err != nil {
						return err
					}
				}
			}
			col += w - 1
			u.maxCol = col
		default:
			return fmt.Errorf("csx: unknown pattern %d at byte %d", pat, i)
		}
		if unitDone != nil {
			if err := unitDone(u); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkedUnit is what blobWalk hands its per-unit hook: the unit's pattern and
// element count, its anchor, and the extremes of the columns it covers.
type walkedUnit struct {
	pat            Pattern
	size           int
	row, col       int32
	minCol, maxCol int32
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
	if err := blobWalk(b, rows, cols, emit, nil); err != nil {
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
//   - no unit straddles the local/direct write boundary (the Fig. 8 legality
//     rule): all of a unit's columns lie on one side of `boundary`, since the
//     kernel routes the whole unit through one target vector,
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
	unitDone := func(u walkedUnit) error {
		if u.minCol < boundary && u.maxCol >= boundary {
			return fmt.Errorf("csx: unit columns [%d,%d] straddle the write boundary %d", u.minCol, u.maxCol, boundary)
		}
		return nil
	}
	if err := blobWalk(b, n, n, emit, unitDone); err != nil {
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
func walkUnits(b *Blob, unitDone func(u walkedUnit) error) error {
	return blobWalk(b, math.MaxInt32, math.MaxInt32, func(r, c int32) error { return nil }, unitDone)
}

var errDumpFull = errors.New("csx: unit dump full")

// UnitDump renders a human-readable listing of the first maxUnits units of a
// blob (debugging/teaching aid used by mtx-info -dump). A stream blobWalk
// refuses is listed up to the unit it broke in, the walker's error last.
func UnitDump(b *Blob, maxUnits int) string {
	var out strings.Builder
	count := 0
	err := walkUnits(b, func(u walkedUnit) error {
		if count >= maxUnits {
			return errDumpFull
		}
		fmt.Fprintf(&out, "unit %3d: row=%d col=%d pat=%s size=%d\n", count, u.row, u.col, u.pat, u.size)
		count++
		return nil
	})
	if err != nil && !errors.Is(err, errDumpFull) {
		fmt.Fprintf(&out, "<%v>\n", err)
	}
	return out.String()
}

// unitMix counts a blob's units by pattern and size: what the decode kernels
// will run, and the table their fixed-width cells are admitted on (DESIGN.md
// §17.2). A block unit of size s is 2 or 3 rows of s/2 or s/3 columns.
type unitMix [numPatterns][maxUnitSize + 1]int64

func mixOf(b *Blob) (m unitMix, err error) {
	err = walkUnits(b, func(u walkedUnit) error {
		m[u.pat][u.size]++
		return nil
	})
	return m, err
}

// totals reports the units and stored elements of pattern p.
func (m *unitMix) totals(p Pattern) (units, elems int64) {
	for size, n := range m[p] {
		units += n
		elems += n * int64(size)
	}
	return units, elems
}

// UnitMix renders the unit mix of a blob: per pattern the units, the stored
// elements, their share of the blob and the mean unit size, and for the block
// patterns the same by block width. mtx-info -dump prints it before the unit
// listing; a stream blobWalk refuses is counted up to the error, printed last.
func UnitMix(b *Blob) string {
	m, err := mixOf(b)
	var all int64
	for p := Pattern(0); p < numPatterns; p++ {
		_, elems := m.totals(p)
		all += elems
	}
	share := func(elems int64) float64 { return 100 * float64(elems) / float64(max(all, 1)) }
	var out strings.Builder
	fmt.Fprintf(&out, "%-14s %9s %10s %7s %10s\n", "pattern", "units", "elements", "share", "mean size")
	for p := Pattern(0); p < numPatterns; p++ {
		units, elems := m.totals(p)
		if units == 0 {
			continue
		}
		fmt.Fprintf(&out, "%-14s %9d %10d %6.1f%% %10.1f\n", p, units, elems, share(elems), float64(elems)/float64(units))
		if p != Block2 && p != Block3 {
			continue
		}
		depth := int(p-Block2) + 2
		for size, n := range m[p] {
			if n > 0 {
				fmt.Fprintf(&out, "  %-12s %9d %10d %6.1f%%\n", fmt.Sprintf("width %d", size/depth), n, n*int64(size), share(n*int64(size)))
			}
		}
	}
	if err != nil {
		fmt.Fprintf(&out, "<%v>\n", err)
	}
	return out.String()
}
