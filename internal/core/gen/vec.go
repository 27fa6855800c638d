package main

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
)

// The second template writes internal/vec/multi_gen.go: the block-CG vector
// bodies, methods of vec's lanes type, at lane widths nv, 2, 4 and 8. An
// operation is written once, as its nv cell's lane body over lane v of the
// row's windows (aw[v]) and of per-lane slices (sum s[v], α a[v]). A
// fixed-width cell unrolls it — per-lane elements and the body's temporaries
// become scalar locals (s[v] → s2, ri → ri2) — and writes its sums to the
// thread's partials once per chunk. Per lane, every cell adds the same terms
// in the same row order (multi_test.go holds each lane to the scalar op).

// vecOp is one operation: the vectors it streams (the first bounds the row
// loop), its per-lane sums in partials order, its per-lane coefficient and
// where that comes from, and its lane body.
type vecOp struct {
	Op, Doc, Coef, From, Body string
	Vecs, Sums                []string
}

var vecOps = []vecOp{
	{Op: "dots", Doc: "MultiDots' body, per-lane partial sums of a∘b,",
		Vecs: []string{"a", "b"}, Sums: []string{"s"},
		Body: "s[v] += aw[v] * bw[v]"},
	{Op: "subCopyDots", Doc: "MultiSubCopyDots' body, r = b − ap, p = r and per-lane\n// partial bᵀb and rᵀr,",
		Vecs: []string{"r", "p", "b", "ap"}, Sums: []string{"sb", "sr"},
		Body: "bi := bw[v]\nri := bi - apw[v]\nrw[v] = ri\npw[v] = ri\nsb[v] += bi * bi\nsr[v] += ri * ri"},
	{Op: "update", Doc: "MultiCGStep's first phase, x += α·p, r −= α·ap and\n// per-lane partial rᵀr,",
		Vecs: []string{"r", "x", "p", "ap"}, Sums: []string{"s"}, Coef: "a", From: "m.alpha",
		Body: "xw[v] += a[v] * pw[v]\nri := rw[v] - a[v]*apw[v]\nrw[v] = ri\ns[v] += ri * ri"},
	{Op: "direction", Doc: "MultiCGStep's second phase, p = r + β·p,",
		Vecs: []string{"p", "r"}, Coef: "b", From: "m.betas(tid)",
		Body: "pw[v] = rw[v] + b[v]*pw[v]"},
}

// vecCell is one operation at one lane width (the cell's Lanes: 2, 4, 8, or
// 0 for nv), spelt with the lower-row cell's helpers.
type vecCell struct {
	cell
	*vecOp
}

// vecCells lists the 16 cells under the names multi.go dispatches on.
func vecCells() (cs []vecCell) {
	for i := range vecOps {
		for _, w := range []int{0, 2, 4, 8} {
			c := vecCell{cell{Name: vecOps[i].Op + "T", Lanes: w}, &vecOps[i]}
			if w > 0 {
				c.Name = fmt.Sprintf("%s%dT", c.Op, w)
			}
			cs = append(cs, c)
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
// unrolled once per lane otherwise.
func (c vecCell) Row() string {
	if c.AnyNV() {
		return fmt.Sprintf("for v := range %sw {\n%s\n}", c.Vecs[0], c.Body)
	}
	var lanes []string
	for _, i := range c.Idx() {
		lane := laneElem.ReplaceAllStringFunc(c.Body, func(e string) string {
			name := strings.TrimSuffix(e, "[v]")
			if slices.Contains(c.Vecs, strings.TrimSuffix(name, "w")) {
				return fmt.Sprintf("%s[%d]", name, i) // a window element
			}
			return fmt.Sprint(name, i)
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
	{{- $v0 := index .Vecs 0}}
	{{$v0}} := m.{{$v0}}[lo*{{.W}} : hi*{{.W}}]
	{{- range slice .Vecs 1}}
	{{.}} := m.{{.}}[lo*{{$c.W}} : hi*{{$c.W}}][:len({{$v0}})]
	{{- end}}
	for i := 0; i+{{.W}} <= len({{$v0}}); i += {{.W}} {
		{{- range .Vecs}}
		{{.}}w := {{$c.Slice . "i"}} // lane window
		{{- end}}
		{{.Row}}
	}
	{{- if and .Sums (not .AnyNV)}}
	ps := m.partial[tid*m.stride : tid*m.stride+{{.Parts}}]
	{{.Slots}} = {{.Regs}}
	{{- end}}
}
{{end}}`
