package main

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
)

// The second template writes internal/vec/multi_gen.go: every vector body of
// the CG loop, methods of vec's lanes type, at lane widths 1, nv, 2, 4 and 8,
// and the lane dot the kernel's fused dot shares with them. An operation is
// written once, as its nv cell's lane body over lane v of the row's windows
// (aw[v]) and of per-lane slices (sum s[v], α a[v]). Width 1 spells it as a
// plain element loop over the chunk (aw[v] → a[i]); a fixed width unrolls it
// — per-lane elements and the body's temporaries become scalar locals
// (s[v] → s2, ri → ri2) — and every cell but nv's writes its sums to the
// thread's partials once per chunk. Per lane, every cell adds the same terms
// in the same row order (multi_test.go holds each lane to a serial loop).

// vecOp is one operation: the vectors it streams (the first bounds the row
// loop), its per-lane sums in partials order, its per-lane coefficient and
// where that comes from, its lane body and the widths it is needed at (nil:
// every width). A Free operation is a serial function of its operands, not a
// thread's body.
type vecOp struct {
	Op, Doc, Coef, From, Body string
	Vecs, Sums                []string
	Widths                    []int
	Free                      bool
}

var vecOps = []vecOp{
	{Op: "subCopyDots", Doc: "the set-up's body, r = b − ap, p = r and per-lane\n// partial bᵀb and rᵀr,",
		Vecs: []string{"r", "p", "b", "ap"}, Sums: []string{"sb", "sr"},
		Body: "bi := bw[v]\nri := bi - apw[v]\nrw[v] = ri\npw[v] = ri\nsb[v] += bi * bi\nsr[v] += ri * ri"},
	{Op: "jacobiSubCopyDots", Doc: "the Jacobi set-up's body, r = b − ap, p = z = d∘r\n// and partial bᵀb, rᵀr and rᵀz,",
		Vecs: []string{"r", "p", "b", "ap", "d"}, Sums: []string{"sb", "sr", "sz"}, Widths: []int{1},
		Body: "bi := bw[v]\nri := bi - apw[v]\nrw[v] = ri\nzi := ri * dw[v]\npw[v] = zi\nsb[v] += bi * bi\nsz[v] += ri * zi\nsr[v] += ri * ri"},
	{Op: "update", Doc: "the step's first phase, x += α·p, r −= α·ap and\n// per-lane partial rᵀr,",
		Vecs: []string{"r", "x", "p", "ap"}, Sums: []string{"s"}, Coef: "a", From: "m.alpha",
		Body: "xw[v] += a[v] * pw[v]\nri := rw[v] - a[v]*apw[v]\nrw[v] = ri\ns[v] += ri * ri"},
	{Op: "jacobiUpdate", Doc: "the Jacobi step's first phase, x += α·p, r −= α·ap\n// and partial rᵀz and rᵀr for z = d∘r,",
		Vecs: []string{"r", "x", "p", "ap", "d"}, Sums: []string{"sz", "sr"}, Coef: "a", From: "m.alpha", Widths: []int{1},
		Body: "xw[v] += a[v] * pw[v]\nri := rw[v] - a[v]*apw[v]\nrw[v] = ri\nsz[v] += ri * (ri * dw[v])\nsr[v] += ri * ri"},
	{Op: "direction", Doc: "the step's second phase, p = r + β·p,",
		Vecs: []string{"p", "r"}, Coef: "b", From: "m.betas(tid)",
		Body: "pw[v] = rw[v] + b[v]*pw[v]"},
	{Op: "jacobiDirection", Doc: "the Jacobi step's second phase, p = d∘r + β·p,",
		Vecs: []string{"p", "r", "d"}, Coef: "b", From: "m.betas(tid)", Widths: []int{1},
		Body: "pw[v] = rw[v]*dw[v] + b[v]*pw[v]"},
	// The lane dot of MultiDots and of the kernel's fused dot (internal/core).
	{Op: "laneDots", Vecs: []string{"a", "b"}, Sums: []string{"s"}, Free: true,
		Body: "s[v] += aw[v] * bw[v]"},
}

// vecCell is one operation at one lane width (the cell's Lanes: 1, 2, 4, 8,
// or 0 for nv), spelt with the lower-row cell's helpers.
type vecCell struct {
	cell
	*vecOp
}

// vecCells lists the cells under the names vec.go dispatches on: op<w>T,
// opT at nv, without the T for a free operation.
func vecCells() (cs []vecCell) {
	for i, op := range vecOps {
		widths := op.Widths
		if widths == nil {
			widths = []int{1, 0, 2, 4, 8}
		}
		for _, w := range widths {
			name := op.Op
			if w > 0 {
				name += fmt.Sprint(w)
			}
			if !op.Free {
				name += "T"
			}
			cs = append(cs, vecCell{cell{Name: name, Lanes: w}, &vecOps[i]})
		}
	}
	return cs
}

// Seq spells format for lanes 0..W-1 of each name, comma-separated:
// Seq("%s%d", "a") is "a0, a1" at width 2.
func (c vecCell) Seq(format string, names ...string) string {
	var s []string
	for _, name := range names {
		for i := range c.Lanes {
			s = append(s, fmt.Sprintf(format, name, i))
		}
	}
	return strings.Join(s, ", ")
}

// Regs lists a fixed-width cell's sum registers in partials order, Parts
// their count and Slots the partials they are stored to.
func (c vecCell) Regs() string { return c.Seq("%s%d", c.Sums...) }
func (c vecCell) Parts() int   { return len(c.Sums) * c.Lanes }
func (c vecCell) Slots() string {
	s := make([]string, c.Parts())
	for i := range s {
		s[i] = fmt.Sprintf("ps[%d]", i)
	}
	return strings.Join(s, ", ")
}

// At is where sum k starts in an nv cell's partials block.
func (c vecCell) At(k int) string { return strings.Repeat("+nv", k) }

var (
	laneElem = regexp.MustCompile(`\b(\w+)\[v\]`)
	declared = regexp.MustCompile(`(?m)^(\w+) :=`)
)

// Row is one row's work: the lane body in a loop over v in the nv cell,
// unrolled once per lane otherwise, on the row's elements at width 1.
func (c vecCell) Row() string {
	if c.AnyNV() {
		return fmt.Sprintf("for v := range %sw {\n%s\n}", c.Vecs[0], c.Body)
	}
	var lanes []string
	for _, i := range c.Idx() {
		lane := laneElem.ReplaceAllStringFunc(c.Body, func(e string) string {
			name := strings.TrimSuffix(e, "[v]")
			switch vec := strings.TrimSuffix(name, "w"); {
			case !slices.Contains(c.Vecs, vec):
				return fmt.Sprint(name, i)
			case c.Scalar():
				return vec + "[i]" // the row's element
			}
			return fmt.Sprintf("%s[%d]", name, i) // a window element
		})
		for _, d := range declared.FindAllStringSubmatch(c.Body, -1) {
			lane = regexp.MustCompile(`\b`+d[1]+`\b`).ReplaceAllString(lane, fmt.Sprint(d[1], i))
		}
		lanes = append(lanes, lane)
	}
	return strings.Join(lanes, "\n")
}

const vecText = `// Code generated by go run ./gen (internal/core/gen); DO NOT EDIT.

package vec

import "repro/internal/parallel"
{{range $c := .}}
{{- $v0 := index .Vecs 0}}
{{- if .Free}}
// {{.Name}} adds each lane's a∘b terms to s[v], row by row, at lane width {{.W}}.
func {{.Name}}(a, b, s []float64) {
	{{- if .AnyNV}}
	nv := len(s)
	{{- else}}
	s = s[:{{.W}}]
	{{.Regs}} := {{.Seq "%s[%d]" "s"}}
	{{- end}}
	b = b[:len(a)]
{{- else}}
// {{.Name}} is {{.Doc}} at lane width {{.W}}.
func (m *lanes) {{.Name}}(tid int) {
	{{- if .AnyNV}}
	nv := m.nv
	{{- end}}
	{{- with .Coef}}
	{{.}} := {{$c.From}}[:{{$c.W}}]
	{{- if not $c.AnyNV}}
	{{$c.Seq "%s%d" .}} := {{$c.Seq "%s[%d]" .}}
	{{- end}}
	{{- end}}
	{{- if .AnyNV}}
	{{- range $k, $s := .Sums}}
	{{$s}} := m.partial[tid*m.stride{{$c.At $k}}:][:nv]
	clear({{$s}})
	{{- end}}
	{{- else if .Sums}}
	var {{.Regs}} float64
	{{- end}}
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	{{$v0}} := m.{{$v0}}[lo*{{.W}} : hi*{{.W}}]
	{{- range slice .Vecs 1}}
	{{.}} := m.{{.}}[lo*{{$c.W}} : hi*{{$c.W}}][:len({{$v0}})]
	{{- end}}
{{- end}}
	{{- if .Scalar}}
	for i := range {{$v0}} {
		{{.Row}}
	}
	{{- else}}
	for i := 0; i+{{.W}} <= len({{$v0}}); i += {{.W}} {
		{{- range .Vecs}}
		{{.}}w := {{$c.Slice . "i"}} // lane window
		{{- end}}
		{{.Row}}
	}
	{{- end}}
	{{- if .AnyNV}}
	{{- else if .Free}}
	{{.Seq "%s[%d]" "s"}} = {{.Regs}}
	{{- else if .Sums}}
	ps := m.partial[tid*m.stride : tid*m.stride+{{.Parts}}]
	{{.Slots}} = {{.Regs}}
	{{- end}}
}
{{end}}`
