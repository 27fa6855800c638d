// Code generated by go run ./gen (internal/core/gen); DO NOT EDIT.

package csx

import "fmt"

// mulBlobSym is the CSX-Sym decode-multiply kernel. Every unit, and every run
// of a strip, sends its symmetric (transposed) writes either to the local
// vector (columns < boundary) or directly to y (columns ≥ boundary); the
// encoder guarantees no unit or run straddles, and a strip's triangle always
// lands in y. The bodies follow DESIGN.md §17.2: a unit's values and its x, y
// and target windows are cut once, by checked slice expressions, and the
// element loops range over slices of proved length; a strip keeps one
// accumulator per row across its runs and its triangle, and folds each run's
// scatter terms into one read-modify-write per column. Results are bitwise
// those of the row-major loops in decode_ref_test.go.
func mulBlobSym(b *Blob, boundary int32, x, y, local []float64) {
	// A slice expression is checked against the capacity: clamp it to the
	// length, so that a window past len panics instead of reading on.
	ctl, vals := b.Ctl, b.Vals[:len(b.Vals):len(b.Vals)]
	x, y, local = x[:len(x):len(x)], y[:len(y):len(y)], local[:len(local):len(local)]
	row, col, bound := int(b.StartRow)-1, 0, int(boundary)
	for i := 0; i < len(ctl); {
		flags, size := ctl[i], int(ctl[i+1])
		i += 2
		if flags&flagNR != 0 {
			row++
			if flags&flagRJMP != 0 {
				jump, n := readUvarint(ctl, i)
				i += n
				row += int(jump)
			}
			col = 0
		}
		switch Pattern(flags & patternMask) {
		case Strip3:
			xr, yw := (*[3]float64)(x[row:]), (*[3]float64)(y[row:])
			xr0, xr1, xr2 := xr[0], xr[1], xr[2]
			s0, s1, s2 := 0.0, 0.0, 0.0
			for range size {
				d, n := readUvarint(ctl, i) // column delta
				col += int(d)
				w := int(ctl[i+n])
				i += n + 1
				target := y // run-level routing
				if col < bound {
					target = local
				}
				a0, a1, a2 := vals[:w], vals[w:][:w], vals[2*w:][:w]
				vals = vals[3*w:]
				xw, tw := x[col:][:w], target[col:][:w]
				for k, xc := range xw {
					s0 += a0[k] * xc
					s1 += a1[k] * xc
					s2 += a2[k] * xc
					tw[k] = ((tw[k] + a0[k]*xr0) + a1[k]*xr1) + a2[k]*xr2
				}
				col += w - 1
			}
			if flags&flagTri != 0 { // the triangle below the diagonal, both halves
				t := (*[3]float64)(vals)
				vals = vals[3:]
				s1, s0 = s1+t[0]*xr0, s0+t[0]*xr1
				s2, s0 = s2+t[1]*xr0, s0+t[1]*xr2
				s2, s1 = s2+t[2]*xr1, s1+t[2]*xr2
			}
			yw[0] += s0
			yw[1] += s1
			yw[2] += s2
			continue
		case Strip2:
			xr, yw := (*[2]float64)(x[row:]), (*[2]float64)(y[row:])
			xr0, xr1 := xr[0], xr[1]
			s0, s1 := 0.0, 0.0
			for range size {
				d, n := readUvarint(ctl, i) // column delta
				col += int(d)
				w := int(ctl[i+n])
				i += n + 1
				target := y // run-level routing
				if col < bound {
					target = local
				}
				a0, a1 := vals[:w], vals[w:][:w]
				vals = vals[2*w:]
				xw, tw := x[col:][:w], target[col:][:w]
				for k, xc := range xw {
					s0 += a0[k] * xc
					s1 += a1[k] * xc
					tw[k] = (tw[k] + a0[k]*xr0) + a1[k]*xr1
				}
				col += w - 1
			}
			if flags&flagTri != 0 { // the triangle below the diagonal, both halves
				t := vals[0]
				vals = vals[1:]
				s1, s0 = s1+t*xr0, s0+t*xr1
			}
			yw[0] += s0
			yw[1] += s1
			continue
		}
		d, n := readUvarint(ctl, i)
		i += n
		col += int(d)

		// Unit-level routing: all columns of a unit sit on one side.
		target := y
		if col < bound {
			target = local
		}
		vv := vals[:size]
		vals = vals[size:]

		switch pat := Pattern(flags & patternMask); pat {
		case Delta8:
			xr, v := x[row], vv[0]
			sum := v * x[col]     // gather
			target[col] += v * xr // scatter
			for _, v := range vv[1:] {
				col += int(ctl[i]) // delta
				i++
				sum += v * x[col]     // gather
				target[col] += v * xr // scatter
			}
			y[row] += sum
		case Delta16:
			xr, v := x[row], vv[0]
			sum := v * x[col]     // gather
			target[col] += v * xr // scatter
			for _, v := range vv[1:] {
				col += int(ctl[i]) | int(ctl[i+1])<<8 // delta
				i += 2
				sum += v * x[col]     // gather
				target[col] += v * xr // scatter
			}
			y[row] += sum
		case Delta32:
			xr, v := x[row], vv[0]
			sum := v * x[col]     // gather
			target[col] += v * xr // scatter
			for _, v := range vv[1:] {
				col += int(ctl[i]) | int(ctl[i+1])<<8 | int(ctl[i+2])<<16 | int(ctl[i+3])<<24 // delta
				i += 4
				sum += v * x[col]     // gather
				target[col] += v * xr // scatter
			}
			y[row] += sum
		case Horizontal:
			xr, xw, tw := x[row], x[col:][:size], target[col:][:size]
			sum := 0.0
			for k, v := range vv {
				sum += v * xw[k]
				tw[k] += v * xr
			}
			y[row] += sum
			col += size - 1
		case Vertical:
			xv, xw, yw := x[col], x[row:][:size], y[row:][:size]
			tsum := 0.0
			for k, v := range vv {
				yw[k] += v * xv
				tsum += v * xw[k]
			}
			target[col] += tsum
		case Diagonal:
			// A sub-diagonal run writes y[r] as row r and again as column r
			// of the next element when target is y: element order stays.
			xw, yw := x[row:][:size], y[row:][:size]
			xc, tw := x[col:][:size], target[col:][:size]
			for k, v := range vv {
				yw[k] += v * xc[k]
				tw[k] += v * xw[k]
			}
		default:
			panic(fmt.Sprintf("csx: unknown pattern %d in ctl stream", pat))
		}
	}
}

// mulBlob is the unsymmetric decode-multiply kernel, mulBlobSym without the
// transpose writes. y rows [StartRow, EndRow) must be zeroed by the caller;
// all unit writes accumulate, and cross-row units never leave the blob's row
// range.
func mulBlob(b *Blob, x, y []float64) {
	// As in mulBlobSym: windows are checked against the length.
	ctl, vals := b.Ctl, b.Vals[:len(b.Vals):len(b.Vals)]
	x, y = x[:len(x):len(x)], y[:len(y):len(y)]
	row, col := int(b.StartRow)-1, 0
	for i := 0; i < len(ctl); {
		flags, size := ctl[i], int(ctl[i+1])
		i += 2
		if flags&flagNR != 0 {
			row++
			if flags&flagRJMP != 0 {
				jump, n := readUvarint(ctl, i)
				i += n
				row += int(jump)
			}
			col = 0
		}
		switch Pattern(flags & patternMask) {
		case Strip3:
			yw := (*[3]float64)(y[row:])
			s0, s1, s2 := 0.0, 0.0, 0.0
			for range size {
				d, n := readUvarint(ctl, i) // column delta
				col += int(d)
				w := int(ctl[i+n])
				i += n + 1
				a0, a1, a2 := vals[:w], vals[w:][:w], vals[2*w:][:w]
				vals = vals[3*w:]
				for k, xc := range x[col:][:w] {
					s0 += a0[k] * xc
					s1 += a1[k] * xc
					s2 += a2[k] * xc
				}
				col += w - 1
			}
			yw[0] += s0
			yw[1] += s1
			yw[2] += s2
			continue
		case Strip2:
			yw := (*[2]float64)(y[row:])
			s0, s1 := 0.0, 0.0
			for range size {
				d, n := readUvarint(ctl, i) // column delta
				col += int(d)
				w := int(ctl[i+n])
				i += n + 1
				a0, a1 := vals[:w], vals[w:][:w]
				vals = vals[2*w:]
				for k, xc := range x[col:][:w] {
					s0 += a0[k] * xc
					s1 += a1[k] * xc
				}
				col += w - 1
			}
			yw[0] += s0
			yw[1] += s1
			continue
		}
		d, n := readUvarint(ctl, i)
		i += n
		col += int(d)
		vv := vals[:size]
		vals = vals[size:]

		switch pat := Pattern(flags & patternMask); pat {
		case Delta8:
			sum := vv[0] * x[col] // gather
			for _, v := range vv[1:] {
				col += int(ctl[i]) // delta
				i++
				sum += v * x[col] // gather
			}
			y[row] += sum
		case Delta16:
			sum := vv[0] * x[col] // gather
			for _, v := range vv[1:] {
				col += int(ctl[i]) | int(ctl[i+1])<<8 // delta
				i += 2
				sum += v * x[col] // gather
			}
			y[row] += sum
		case Delta32:
			sum := vv[0] * x[col] // gather
			for _, v := range vv[1:] {
				col += int(ctl[i]) | int(ctl[i+1])<<8 | int(ctl[i+2])<<16 | int(ctl[i+3])<<24 // delta
				i += 4
				sum += v * x[col] // gather
			}
			y[row] += sum
		case Horizontal:
			xw := x[col:][:size]
			sum := 0.0
			for k, v := range vv {
				sum += v * xw[k]
			}
			y[row] += sum
			col += size - 1
		case Vertical:
			xv, yw := x[col], y[row:][:size]
			for k, v := range vv {
				yw[k] += v * xv
			}
		case Diagonal:
			xc, yw := x[col:][:size], y[row:][:size]
			for k, v := range vv {
				yw[k] += v * xc[k]
			}
		default:
			panic(fmt.Sprintf("csx: unknown pattern %d in ctl stream", pat))
		}
	}
}
