package main

import (
	"fmt"
	"strings"
)

// The fourth template writes internal/csx/decode_gen.go: the two trusted
// walkers of the CSX ctl grammar (DESIGN.md §17.2), one decode loop whose one
// hole is the symmetric scatter. With it (mulBlobSym) every unit and strip
// run sends its transpose writes to y or to the thread's local vector by its
// first column, and a strip closes with its diagonal triangle; without it
// (mulBlob) the loop gathers only. Strip arms are cells at depths 3 and 2,
// delta arms at widths 8, 16 and 32.

// decodeArm is one strip depth or one delta width (N), with or without the
// symmetric scatter.
type decodeArm struct {
	Sym bool
	N   int
}

// decodeCells lists the kernels in the order they are emitted, which is their
// order in a binary.
var decodeCells = []decodeArm{{Sym: true}, {}}

func (c decodeArm) Strips() []decodeArm { return []decodeArm{{c.Sym, 3}, {c.Sym, 2}} }
func (c decodeArm) Deltas() []decodeArm { return []decodeArm{{c.Sym, 8}, {c.Sym, 16}, {c.Sym, 32}} }

// Each spells f once per strip row, "#" the row, joined by sep.
func (c decodeArm) Each(f, sep string) string {
	s := make([]string, c.N)
	for i := range s {
		s[i] = strings.ReplaceAll(f, "#", fmt.Sprint(i))
	}
	return strings.Join(s, sep)
}

// Windows cuts a run's rows out of the values, Fold is a column's scatter
// terms in row order.
func (c decodeArm) Windows() string {
	return strings.Join([]string{"vals[:w]", "vals[w:][:w]", "vals[2*w:][:w]"}[:c.N], ", ")
}

func (c decodeArm) Fold() string {
	e := "tw[k]"
	for i := range c.N {
		e = fmt.Sprintf("(%s + a%d[k]*xr%d)", e, i, i)
	}
	return e[1 : len(e)-1]
}

// Tri adds a strip's triangle (r, q), q < r, both halves, into the row sums.
// At depth 2 the one element is read as a value.
func (c decodeArm) Tri() string {
	n := c.N * (c.N - 1) / 2
	t, lines := "t", []string{"t := vals[0]", "vals = vals[1:]"}
	if n > 1 {
		lines = []string{fmt.Sprintf("t := (*[%d]float64)(vals)", n), fmt.Sprintf("vals = vals[%d:]", n)}
	}
	for r, m := 1, 0; r < c.N; r++ {
		for q := 0; q < r; q, m = q+1, m+1 {
			if n > 1 {
				t = fmt.Sprintf("t[%d]", m)
			}
			lines = append(lines, fmt.Sprintf("s%d, s%d = s%d+%s*xr%d, s%d+%s*xr%d", r, q, r, t, q, q, t, r))
		}
	}
	return strings.Join(lines, "\n")
}

// Delta reads a body delta of N bits, little-endian, Step moves past it.
func (c decodeArm) Delta() string {
	b := []string{"int(ctl[i])"}
	for k := 1; k < c.N/8; k++ {
		b = append(b, fmt.Sprintf("int(ctl[i+%d])<<%d", k, 8*k))
	}
	return strings.Join(b, " | ")
}

func (c decodeArm) Step() string {
	if c.N == 8 {
		return "i++"
	}
	return fmt.Sprintf("i += %d", c.N/8)
}

const decodeText = `// Code generated by go run ./gen (internal/core/gen); DO NOT EDIT.

package csx

import "fmt"
{{range .}}
{{- if .Sym}}
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
{{- else}}
// mulBlob is the unsymmetric decode-multiply kernel, mulBlobSym without the
// transpose writes. y rows [StartRow, EndRow) must be zeroed by the caller;
// all unit writes accumulate, and cross-row units never leave the blob's row
// range.
func mulBlob(b *Blob, x, y []float64) {
	// As in mulBlobSym: windows are checked against the length.
	ctl, vals := b.Ctl, b.Vals[:len(b.Vals):len(b.Vals)]
	x, y = x[:len(x):len(x)], y[:len(y):len(y)]
	row, col := int(b.StartRow)-1, 0
{{- end}}
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
		{{- range .Strips}}
		case Strip{{.N}}:
			{{- if .Sym}}
			xr, yw := (*[{{.N}}]float64)(x[row:]), (*[{{.N}}]float64)(y[row:])
			{{.Each "xr#" ", "}} := {{.Each "xr[#]" ", "}}
			{{- else}}
			yw := (*[{{.N}}]float64)(y[row:])
			{{- end}}
			{{.Each "s#" ", "}} := {{.Each "0.0" ", "}}
			for range size {
				d, n := readUvarint(ctl, i) // column delta
				col += int(d)
				w := int(ctl[i+n])
				i += n + 1
				{{- if .Sym}}
				target := y // run-level routing
				if col < bound {
					target = local
				}
				{{- end}}
				{{.Each "a#" ", "}} := {{.Windows}}
				vals = vals[{{.N}}*w:]
				{{- if .Sym}}
				xw, tw := x[col:][:w], target[col:][:w]
				for k, xc := range xw {
				{{- else}}
				for k, xc := range x[col:][:w] {
				{{- end}}
					{{.Each "s# += a#[k] * xc" "\n"}}
					{{- if .Sym}}
					tw[k] = {{.Fold}}
					{{- end}}
				}
				col += w - 1
			}
			{{- if .Sym}}
			if flags&flagTri != 0 { // the triangle below the diagonal, both halves
				{{.Tri}}
			}
			{{- end}}
			{{.Each "yw[#] += s#" "\n"}}
			continue
		{{- end}}
		}
		d, n := readUvarint(ctl, i)
		i += n
		col += int(d)
		{{- if .Sym}}

		// Unit-level routing: all columns of a unit sit on one side.
		target := y
		if col < bound {
			target = local
		}
		{{- end}}
		vv := vals[:size]
		vals = vals[size:]

		switch pat := Pattern(flags & patternMask); pat {
		{{- range .Deltas}}
		case Delta{{.N}}:
			{{- if .Sym}}
			xr, v := x[row], vv[0]
			sum := v * x[col]     // gather
			target[col] += v * xr // scatter
			{{- else}}
			sum := vv[0] * x[col] // gather
			{{- end}}
			for _, v := range vv[1:] {
				col += {{.Delta}} // delta
				{{.Step}}
				sum += v * x[col] // gather
				{{- if .Sym}}
				target[col] += v * xr // scatter
				{{- end}}
			}
			y[row] += sum
		{{- end}}
		case Horizontal:
			{{- if .Sym}}
			xr, xw, tw := x[row], x[col:][:size], target[col:][:size]
			{{- else}}
			xw := x[col:][:size]
			{{- end}}
			sum := 0.0
			for k, v := range vv {
				sum += v * xw[k]
				{{- if .Sym}}
				tw[k] += v * xr
				{{- end}}
			}
			y[row] += sum
			col += size - 1
		case Vertical:
			{{- if .Sym}}
			xv, xw, yw := x[col], x[row:][:size], y[row:][:size]
			tsum := 0.0
			{{- else}}
			xv, yw := x[col], y[row:][:size]
			{{- end}}
			for k, v := range vv {
				yw[k] += v * xv
				{{- if .Sym}}
				tsum += v * xw[k]
				{{- end}}
			}
			{{- if .Sym}}
			target[col] += tsum
			{{- end}}
		case Diagonal:
			{{- if .Sym}}
			// A sub-diagonal run writes y[r] as row r and again as column r
			// of the next element when target is y: element order stays.
			xw, yw := x[row:][:size], y[row:][:size]
			xc, tw := x[col:][:size], target[col:][:size]
			{{- else}}
			xc, yw := x[col:][:size], y[row:][:size]
			{{- end}}
			for k, v := range vv {
				yw[k] += v * xc[k]
				{{- if .Sym}}
				tw[k] += v * xw[k]
				{{- end}}
			}
		default:
			panic(fmt.Sprintf("csx: unknown pattern %d in ctl stream", pat))
		}
	}
}
{{end}}`
