// Command gen writes internal/core/lowerrow_gen.go and internal/csr/mul_gen.go:
// the multiply bodies of the symmetric kernel and CSR's rows, every one an
// instantiation of the single lower-row loop below. Its other templates write
// internal/vec/multi_gen.go, the block-CG vector bodies (vec.go),
// internal/atof's table (pow10.go) and internal/csx's decode loops (decode.go).
// Run by `go generate ./internal/core/...` (the one directive lives in
// lowerrow.go); `make ci` fails when a checked-in file differs from what this
// program prints.
//
// The loop has three holes (DESIGN.md §17):
//
//	write policy  where the transpose write y[c] += a[r][c]·x[r] lands:
//	              local  — every write, the row sum included, goes to the
//	                       thread's full-length local vector (naive);
//	              split  — columns below the thread's first row go to its local
//	                       vector, the rest and the row sum to y (effective
//	                       ranges, indexed); rows past the thread's local
//	                       frontier (Kernel.splitEnd) store no such column and
//	                       run a second row loop, the y loop alone;
//	              direct — every write goes to y, in two phases on the
//	                       colored schedule's ranges (internal/color): phase 1
//	                       runs the split rows without the columns below the
//	                       range's first row, phase 2 (cross) runs those deferred
//	                       columns alone, seeding each row sum with y[r];
//	              gather — none: CSR's full rows, y[r] assigned.
//	value policy  sym — the stored value both ways; kind — sign·uval[j] on the
//	              transpose write and an optional diagonal (skew, structural).
//	lane width    1 (SpM×V over the x, y arguments), 2, 4, 8 (register-blocked
//	              SpMM over the operand slots) or nv (any width, row sums kept
//	              in memory).
//
// Per output element every cell adds the same terms in the same order as the
// textbook loop it replaced (lowerrow_ref_test.go keeps that one as the
// oracle), so results are bitwise those of the hand-written bodies.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
	"text/template"
)

// cell is one instantiation of the template.
type cell struct {
	Name  string
	Write string // "local", "split", "direct" or "gather"
	Kind  bool   // value policy: false = sym, true = kind
	Lanes int    // 1, 2, 4, 8, or 0 for the run-time width nv
	To    string // scatter target of the loop being emitted (set by Into)
	Past  bool   // the split row loop past the local frontier (set by PastFrontier)
	Defer bool   // the direct cell's phase-2 row loop (set by Deferred)
}

// cellFile is one package's cells.
type cellFile struct {
	Pkg   string
	Cells []cell
}

// cells lists the 18 bodies under the names Kernel.phases and assembleColored dispatch on.
var cells = []cell{
	{Name: "multiplyNaiveT", Write: "local", Lanes: 1},
	{Name: "multiplyEffectiveT", Write: "split", Lanes: 1},
	{Name: "multiplyColoredT", Write: "direct", Lanes: 1},
	{Name: "multiplyNaiveKindT", Write: "local", Kind: true, Lanes: 1},
	{Name: "multiplyEffectiveKindT", Write: "split", Kind: true, Lanes: 1},
	{Name: "multiplyColoredKindT", Write: "direct", Kind: true, Lanes: 1},
	{Name: "mulMatNaiveT", Write: "local"},
	{Name: "mulMatNaive2T", Write: "local", Lanes: 2},
	{Name: "mulMatNaive4T", Write: "local", Lanes: 4},
	{Name: "mulMatNaive8T", Write: "local", Lanes: 8},
	{Name: "mulMatEffectiveT", Write: "split"},
	{Name: "mulMatEffective2T", Write: "split", Lanes: 2},
	{Name: "mulMatEffective4T", Write: "split", Lanes: 4},
	{Name: "mulMatEffective8T", Write: "split", Lanes: 8},
	{Name: "mulMatColoredT", Write: "direct"},
	{Name: "mulMatColored2T", Write: "direct", Lanes: 2},
	{Name: "mulMatColored4T", Write: "direct", Lanes: 4},
	{Name: "mulMatColored8T", Write: "direct", Lanes: 8},
}

func (c cell) Local() bool  { return c.Write == "local" }
func (c cell) Split() bool  { return c.Write == "split" }
func (c cell) Direct() bool { return c.Write == "direct" }
func (c cell) Gather() bool { return c.Write == "gather" }
func (c cell) Scalar() bool { return c.Lanes == 1 }
func (c cell) AnyNV() bool  { return c.Lanes == 0 }

// Into returns the cell with its scatter target set, for the nonzero template.
func (c cell) Into(target string) cell { c.To = target; return c }

// PastFrontier returns the split cell's row body for rows that write no local
// vector entry, for the row template.
func (c cell) PastFrontier() cell { c.Past = true; return c }

// Deferred returns the direct cell's phase-2 row body, for the row template.
func (c cell) Deferred() cell { c.Defer = true; return c }

// Params is the signature today's dispatch calls: SpM×V cells take their
// operands, SpMM cells read the kernel's operand slots.
func (c cell) Params() string {
	rows := "tid int"
	if c.Direct() {
		rows = "tid int, cross bool"
	}
	switch {
	case c.Gather() && c.AnyNV():
		return "m *Matrix, x, y []float64, nv, lo, hi int"
	case c.Gather():
		return "m *Matrix, x, y []float64, lo, hi int"
	case c.Scalar() && c.Local():
		return rows + ", x []float64"
	case c.Scalar():
		return rows + ", x, y []float64"
	case c.AnyNV() && c.Direct():
		return rows + ", nv int"
	case c.AnyNV():
		return "tid, nv int"
	}
	return rows
}

// W is the lane width as the emitted code spells it.
func (c cell) W() string {
	if c.AnyNV() {
		return "nv"
	}
	return fmt.Sprint(c.Lanes)
}

// Col is the column of stored element j: an int32 index for the vectors of an
// SpM×V cell, an int to scale by the lane width otherwise.
func (c cell) Col() string {
	if c.Scalar() {
		return "colIdx[j]"
	}
	return "int(colIdx[j])"
}

// Idx lists the lane indices of an unrolled width.
func (c cell) Idx() []int {
	idx := make([]int, c.Lanes)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Row is where a finished row sum goes, RowOp how: the local policy adds into
// the (zeroed) local vector; the others assign — transpose writes only
// reach earlier rows, so y[r] is untouched until its own row stores it, and
// a deferred row sum starts from the y[r] phase 1 stored.
func (c cell) Row() string {
	if c.Local() {
		return "local"
	}
	return "y"
}

func (c cell) RowOp() string {
	if c.Local() {
		return "+="
	}
	return "="
}

// Slice spells v[at : at+W : at+W], the lane window of one row or column.
func (c cell) Slice(v, at string) string {
	return fmt.Sprintf("%s[%s : %s+%s : %s+%s]", v, at, at, c.W(), at, c.W())
}

const text = `// Code generated by go run ./gen (internal/core/gen/main.go); DO NOT EDIT.

package {{.Pkg}}
{{range .Cells}}{{template "cell" .}}{{end}}
{{- define "cell"}}
{{- if .Gather}}
// {{.Name}} is the lower-row loop with the gather write policy (full rows, no
// transpose write) and lane width {{.W}}, over rows [lo, hi) of m.
func {{.Name}}({{.Params}}) {
	rowPtr := m.RowPtr
	colIdx := m.ColIdx
	val := m.Val[:len(colIdx)]
{{- else}}
// {{.Name}} is the lower-row loop with the {{.Write}} write policy, the {{if .Kind}}kind{{else}}sym{{end}}
// value policy and lane width {{.W}}.
func (k *Kernel) {{.Name}}({{.Params}}) {
	s := k.S
	n := s.N
	{{- /* Every slice leaves s once per call, cut to a length the compiler can
	       reason with: equal lengths let one check serve two vectors. */}}
	{{- if .Scalar}}
	x = x[:n]
	{{- if not .Local}}
	y = y[:n]
	{{- end}}
	{{- else if .Local}}
	x := k.curX
	{{- else}}
	x, y := k.curX, k.curY
	{{- end}}
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	{{- if .Kind}}
	uval, sign := s.kindUval()
	uval = uval[:len(colIdx)]
	dv := s.DValues
	{{- else}}
	dv := s.DValues[:n]
	{{- end}}
	{{- if not .Direct}}
	local := k.LV.Vecs[tid]{{if and .Scalar .Local}}[:n]{{end}}
	{{- end}}
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
{{- end}}
	{{- if or .Local .Gather}}
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	for r := lo; r < hi; r++ {
		{{- template "row" .}}
	}
	{{- else}}
	startT := {{if .Scalar}}int32(lo){{else}}lo{{end}}
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	{{- if .Direct}}
	if cross {
		// Phase 2: the frontier rows' columns below startT, which phase 1 skipped.
		for r := lo; r < mid; r++ {
			j = uint(rowPtr[r])
			{{- template "row" .Deferred}}
		}
		return
	}
	{{- end}}
	for r := lo; r < mid; r++ {
		{{- template "row" .}}
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		{{- template "row" .PastFrontier}}
	}
	{{- end}}
}
{{end}}
{{- define "row"}}
			// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
			jhi := uint(rowPtr[r+1])
			if jhi > uint(len(colIdx)) {
				panic(rowPtrOverrun(r))
			}
			{{- if and .Gather .Scalar}}
			acc := 0.0
			{{- else if .Gather}}
			ri := r * nv
			row := {{.Slice "y" "ri"}}
			clear(row)
			{{- else if .Scalar}}
			xr := x[r]
			{{- if .Defer}}
			acc := y[r]
			{{- else if .Kind}}
			acc := 0.0
			if dv != nil {
				acc = dv[r] * xr
			}
			{{- else}}
			acc := dv[r] * xr
			{{- end}}
			{{- else}}
			ri := r * {{.W}}
			xr := {{.Slice "x" "ri"}}
			{{- if .AnyNV}}
			row := {{.Slice .Row "ri"}}
			{{- if not .Defer}}
			d := dv[r]
			for v := range xr {
				row[v] {{.RowOp}} d * xr[v]
			}
			{{- end}}
			{{- else}}
			{{- range .Idx}}
			xr{{.}} := xr[{{.}}]
			{{- end}}
			{{- if .Defer}}
			row := {{.Slice .Row "ri"}}
			{{- else}}
			d := dv[r]
			{{- end}}
			{{- range .Idx}}
			acc{{.}} := {{if $.Defer}}row[{{.}}]{{else}}d * xr{{.}}{{end}}
			{{- end}}
			{{- end}}
			{{- end}}
			{{- if .Defer}}
			for ; j < jhi; j++ {
				c := {{.Col}}
				if c >= startT {
					break
				}
				{{- template "nonzero" .Into "y"}}
			}
			{{- else}}
			{{- if and .Split (not .Past)}}
			// Columns ascend within a row, so the effective-range boundary is a
			// point in the row: local writes up to it, y writes after it.
			for ; j < jhi; j++ {
				c := {{.Col}}
				if c >= startT {
					break
				}
				{{- template "nonzero" .Into "local"}}
			}
			{{- else if and .Direct (not .Past)}}
			// The columns below startT are phase 2's.
			for j < jhi && {{.Col}} < startT {
				j++
			}
			{{- end}}
			for ; j < jhi; j++ {
				c := {{.Col}}
				{{- template "nonzero" .Into .Row}}
			}
			{{- end}}
			{{- if .Scalar}}
			{{.Row}}[r] {{.RowOp}} acc
			{{- else if not .AnyNV}}
			{{- if not .Defer}}
			row := {{.Slice .Row "ri"}}
			{{- end}}
			{{- range .Idx}}
			row[{{.}}] {{$.RowOp}} acc{{.}}
			{{- end}}
			{{- end}}
{{- end}}
{{- define "nonzero"}}
				{{- if and .Gather .Scalar}}
				acc += val[j] * x[c] // gather
				{{- else if .Scalar}}
				{{- if .Kind}}
				acc += val[j] * x[c] // gather
				{{.To}}[c] += sign * uval[j] * xr // scatter
				{{- else}}
				v := val[j]
				acc += v * x[c] // gather
				{{.To}}[c] += v * xr // scatter
				{{- end}}
				{{- else}}
				ci := c * {{.W}}
				a := val[j]
				xc := {{.Slice "x" "ci"}} // gather
				{{- if .Gather}}
				for v := range xc {
					row[v] += a * xc[v]
				}
				{{- else if .AnyNV}}
				tc := {{.Slice .To "ci"}} // scatter
				for v := range xc {
					row[v] += a * xc[v]
					tc[v] += a * xr[v]
				}
				{{- else}}
				{{- range .Idx}}
				acc{{.}} += a * xc[{{.}}]
				{{- end}}
				tc := {{.Slice .To "ci"}} // scatter
				{{- range .Idx}}
				tc[{{.}}] += a * xr{{.}}
				{{- end}}
				{{- end}}
				{{- end}}
{{- end}}`

func main() {
	for _, err := range []error{
		generate("lowerrow_gen.go", text, cellFile{"core", cells}),
		generate("../csr/mul_gen.go", text, cellFile{"csr", []cell{
			{Name: "mulRows", Write: "gather", Lanes: 1},
			{Name: "mulMatRows", Write: "gather"},
		}}),
		generate("../vec/multi_gen.go", vecText, vecCells()),
		generate("../atof/pow10_gen.go", pow10Text, pow10Rows()),
		generate("../csx/decode_gen.go", decodeText, decodeCells),
	} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "gen:", err)
			os.Exit(1)
		}
	}
}

func generate(path, text string, data any) error {
	var buf bytes.Buffer
	if err := template.Must(template.New(path).Parse(text)).Execute(&buf, data); err != nil {
		return err
	}
	src, err := format.Source(buf.Bytes())
	if err != nil {
		return fmt.Errorf("the template's output does not parse: %v\n%s", err, buf.Bytes())
	}
	return os.WriteFile(path, src, 0o644)
}
