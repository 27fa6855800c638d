// Command gen writes internal/core/lowerrow_gen.go: the multiply bodies of
// the symmetric kernel, every one an instantiation of the single lower-row
// loop below. Run by `go generate ./internal/core/...` (the directive lives
// in lowerrow.go); `make ci` fails when the checked-in file differs from what
// this program prints.
//
// The loop has three holes (DESIGN.md §17):
//
//	write policy  where the transpose write y[c] += a[r][c]·x[r] lands:
//	              local  — every write, the row sum included, goes to the
//	                       thread's full-length local vector (naive);
//	              split  — columns below the thread's first row go to its local
//	                       vector, the rest and the row sum to y (effective
//	                       ranges, indexed);
//	              direct — everything goes to y, rows come from the colour's
//	                       blocks and the diagonal from the init phase (colored).
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
	Write string // "local", "split" or "direct"
	Kind  bool   // value policy: false = sym, true = kind
	Lanes int    // 1, 2, 4, 8, or 0 for the run-time width nv
	To    string // scatter target of the loop being emitted (set by Into)
}

// cells lists the 18 bodies under the names phases() and mulmat.go dispatch on.
var cells = []cell{
	{Name: "multiplyNaiveT", Write: "local", Lanes: 1},
	{Name: "multiplyEffectiveT", Write: "split", Lanes: 1},
	{Name: "colorBlocksT", Write: "direct", Lanes: 1},
	{Name: "multiplyNaiveKindT", Write: "local", Kind: true, Lanes: 1},
	{Name: "multiplyEffectiveKindT", Write: "split", Kind: true, Lanes: 1},
	{Name: "colorBlocksKindT", Write: "direct", Kind: true, Lanes: 1},
	{Name: "mulMatNaiveT", Write: "local"},
	{Name: "mulMatNaive2T", Write: "local", Lanes: 2},
	{Name: "mulMatNaive4T", Write: "local", Lanes: 4},
	{Name: "mulMatNaive8T", Write: "local", Lanes: 8},
	{Name: "mulMatEffectiveT", Write: "split"},
	{Name: "mulMatEffective2T", Write: "split", Lanes: 2},
	{Name: "mulMatEffective4T", Write: "split", Lanes: 4},
	{Name: "mulMatEffective8T", Write: "split", Lanes: 8},
	{Name: "colorBlocksMatT", Write: "direct"},
	{Name: "colorBlocksMat2T", Write: "direct", Lanes: 2},
	{Name: "colorBlocksMat4T", Write: "direct", Lanes: 4},
	{Name: "colorBlocksMat8T", Write: "direct", Lanes: 8},
}

func (c cell) Local() bool  { return c.Write == "local" }
func (c cell) Split() bool  { return c.Write == "split" }
func (c cell) Direct() bool { return c.Write == "direct" }
func (c cell) Scalar() bool { return c.Lanes == 1 }
func (c cell) AnyNV() bool  { return c.Lanes == 0 }

// Into returns the cell with its scatter target set, for the nonzero template.
func (c cell) Into(target string) cell { c.To = target; return c }

// Params is the signature today's dispatch calls: SpM×V cells take their
// operands, SpMM cells read the kernel's operand slots.
func (c cell) Params() string {
	rows := "tid int"
	if c.Direct() {
		rows = "blocks []int32"
	}
	switch {
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
// the (zeroed) local vector, split assigns — transpose writes only reach
// earlier rows, so y[r] is untouched until its own row stores it — and direct
// adds onto the init phase's diagonal and earlier colours' writes.
func (c cell) Row() string {
	if c.Local() {
		return "local"
	}
	return "y"
}

func (c cell) RowOp() string {
	if c.Split() {
		return "="
	}
	return "+="
}

// Slice spells v[at : at+W : at+W], the lane window of one row or column.
func (c cell) Slice(v, at string) string {
	return fmt.Sprintf("%s[%s : %s+%s : %s+%s]", v, at, at, c.W(), at, c.W())
}

const text = `// Code generated by go run ./gen (internal/core/gen/main.go); DO NOT EDIT.

package core
{{range .}}{{template "cell" .}}{{end}}
{{- define "cell"}}
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
	{{- if not .Direct}}
	dv := s.DValues
	{{- end}}
	{{- else if not .Direct}}
	dv := s.DValues[:n]
	{{- end}}
	{{- if .Direct}}
	part := k.sched.Part
	for _, b := range blocks {
		lo, hi := int(part.Start[b]), int(part.End[b])
	{{- else}}
	{{- if .Scalar}}
	local := k.LV.Vecs[tid]{{if .Local}}[:n]{{end}}
	{{- else}}
	local := k.wide.vecs[tid]
	{{- end}}
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	{{- end}}
		{{- if and .Split .Scalar}}
		startT := int32(lo)
		{{- else if .Split}}
		startT := lo
		{{- end}}
		j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
		for r := lo; r < hi; r++ {
			// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
			jhi := uint(rowPtr[r+1])
			if jhi > uint(len(colIdx)) {
				panic(rowPtrOverrun(r))
			}
			{{- if .Scalar}}
			xr := x[r]
			{{- if .Kind}}
			acc := 0.0
			{{- if not .Direct}}
			if dv != nil {
				acc = dv[r] * xr
			}
			{{- end}}
			{{- else if .Direct}}
			acc := 0.0
			{{- else}}
			acc := dv[r] * xr
			{{- end}}
			{{- else}}
			ri := r * {{.W}}
			xr := {{.Slice "x" "ri"}}
			{{- if .AnyNV}}
			row := {{.Slice .Row "ri"}}
			{{- if not .Direct}}
			d := dv[r]
			for v := range xr {
				row[v] {{.RowOp}} d * xr[v]
			}
			{{- end}}
			{{- else}}
			{{- range .Idx}}
			xr{{.}} := xr[{{.}}]
			{{- end}}
			{{- if not .Direct}}
			d := dv[r]
			{{- end}}
			{{- range .Idx}}
			acc{{.}} := {{if $.Direct}}0.0{{else}}d * xr{{.}}{{end}}
			{{- end}}
			{{- end}}
			{{- end}}
			{{- if .Split}}
			// Columns ascend within a row, so the effective-range boundary is a
			// point in the row: local writes up to it, y writes after it.
			for ; j < jhi; j++ {
				c := {{.Col}}
				if c >= startT {
					break
				}
				{{- template "nonzero" .Into "local"}}
			}
			{{- end}}
			for ; j < jhi; j++ {
				c := {{.Col}}
				{{- template "nonzero" .Into .Row}}
			}
			{{- if .Scalar}}
			{{.Row}}[r] {{.RowOp}} acc
			{{- else if not .AnyNV}}
			row := {{.Slice .Row "ri"}}
			{{- range .Idx}}
			row[{{.}}] {{$.RowOp}} acc{{.}}
			{{- end}}
			{{- end}}
		}
	{{- if .Direct}}
	}
	{{- end}}
}
{{end}}
{{- define "nonzero"}}
				{{- if .Scalar}}
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
				{{- if .AnyNV}}
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
	if err := generate("lowerrow_gen.go"); err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		os.Exit(1)
	}
}

func generate(path string) error {
	var buf bytes.Buffer
	if err := template.Must(template.New("lowerrow").Parse(text)).Execute(&buf, cells); err != nil {
		return err
	}
	src, err := format.Source(buf.Bytes())
	if err != nil {
		return fmt.Errorf("the template's output does not parse: %v\n%s", err, buf.Bytes())
	}
	return os.WriteFile(path, src, 0o644)
}
