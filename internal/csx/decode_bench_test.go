package csx

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/reorder"
)

// suiteMatrix generates an internal/gen suite matrix at the given scale.
func suiteMatrix(tb testing.TB, name string, scale float64) *matrix.COO {
	tb.Helper()
	sp, err := gen.SpecByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := gen.Generate(sp, scale)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// analog is one benchmark matrix, generated when asked for.
type analog struct {
	name  string
	build func(tb testing.TB, scale float64) *matrix.COO
}

// analogs are the four matrices of the repository benchmark
// (benchmark/workloads.go) at scale times its sizes — the scattered stencil in
// natural and RCM order, the block-banded FEM matrix, the Poisson grid — and
// consph, which stands for the suite's 3×3-block family (DESIGN.md §17.2
// decides a cell on it).
var analogs = []analog{
	{"parabolic_fem", func(tb testing.TB, scale float64) *matrix.COO { return suiteMatrix(tb, "parabolic_fem", 0.25*scale) }},
	{"parabolic_fem-rcm", func(tb testing.TB, scale float64) *matrix.COO {
		fem := suiteMatrix(tb, "parabolic_fem", 0.25*scale)
		perm, err := reorder.RCM(fem)
		if err != nil {
			tb.Fatal(err)
		}
		rcm, err := fem.Permute(perm)
		if err != nil {
			tb.Fatal(err)
		}
		return rcm
	}},
	{"bmwcra_1", func(tb testing.TB, scale float64) *matrix.COO { return suiteMatrix(tb, "bmwcra_1", 0.25*scale) }},
	{"poisson144", func(tb testing.TB, scale float64) *matrix.COO {
		side := int(144 * scale)
		grid := matrix.NewCOO(side*side, side*side, 3*side*side)
		grid.Symmetric = true
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				v := i*side + j
				grid.Add(v, v, 4)
				if j > 0 {
					grid.Add(v, v-1, -1)
				}
				if i > 0 {
					grid.Add(v, v-side, -1)
				}
			}
		}
		return grid.Normalize()
	}},
	{"consph", func(tb testing.TB, scale float64) *matrix.COO { return suiteMatrix(tb, "consph", 0.25*scale) }},
}

// BenchmarkDecodeUnits times the two decode kernels on the analogs at p = 1
// and 2 blobs, in nanoseconds per stored element, and reports the unit mix
// each ran over as the share of stored elements in delta units, in 1-D runs
// and in 2-D blocks. Like BenchmarkLowerRowBodies the blobs run one after the
// other on the benchmark's goroutine (for CSX-Sym the whole phase list, so
// that the reduction re-zeroes the local vectors): no pool, no hand-off noise,
// the same work whatever the host's core count.
func BenchmarkDecodeUnits(b *testing.B) {
	for _, a := range analogs {
		b.Run(a.name, func(b *testing.B) { // a filtered-out matrix is never generated
			m := a.build(b, 1)
			s, err := core.FromCOO(m)
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, s.N)
			y := make([]float64, s.N)
			for j := range x {
				x[j] = 1 + float64(j%7)/8
			}
			for _, p := range []int{1, 2} {
				mx := NewMatrix(m, p, DefaultOptions())
				runUnits(b, fmt.Sprintf("csx/p%d", p), mx.Blobs, mx.NNZ(), func() {
					for _, blob := range mx.Blobs {
						clear(y[blob.StartRow:blob.EndRow])
						mulBlob(blob, x, y)
					}
				})
				sm := NewSym(s, p, core.Indexed, DefaultOptions())
				sm.assemble()
				sm.curX, sm.curY = x, y
				runUnits(b, fmt.Sprintf("csx-sym/p%d", p), sm.Blobs, sm.NNZLower(), func() {
					for _, ph := range sm.plain.Phases {
						for tid := range sm.Blobs {
							ph.Fn(tid)
						}
					}
				})
			}
		})
	}
}

func runUnits(b *testing.B, name string, blobs []*Blob, elems int, product func()) {
	var share [3]float64 // delta units, 1-D runs, blocks
	for _, blob := range blobs {
		mix, err := mixOf(blob)
		if err != nil {
			b.Fatal(err)
		}
		for p := Pattern(0); p < numPatterns; p++ {
			_, n := mix.totals(p)
			kind := 2
			switch {
			case p <= Delta32:
				kind = 0
			case p < Block2:
				kind = 1
			}
			share[kind] += 100 * float64(n) / float64(elems)
		}
	}
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			product()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
		b.ReportMetric(share[0], "%delta")
		b.ReportMetric(share[1], "%runs")
		b.ReportMetric(share[2], "%blocks")
	})
}
