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
	rows  int // at scale 1
	build func(tb testing.TB, scale float64) *matrix.COO
}

// analogs are the four matrices of the repository benchmark
// (benchmark/workloads.go) at scale times its sizes — the scattered stencil in
// natural and RCM order, the block-banded FEM matrix, the Poisson grid — and
// consph, which stands for the suite's 3×3-block family.
var analogs = []analog{
	{"parabolic_fem", 131456, func(tb testing.TB, scale float64) *matrix.COO { return suiteMatrix(tb, "parabolic_fem", 0.25*scale) }},
	{"parabolic_fem-rcm", 131456, func(tb testing.TB, scale float64) *matrix.COO {
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
	{"bmwcra_1", 37192, func(tb testing.TB, scale float64) *matrix.COO { return suiteMatrix(tb, "bmwcra_1", 0.25*scale) }},
	{"poisson144", 144 * 144, func(tb testing.TB, scale float64) *matrix.COO {
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
	{"consph", 20834, func(tb testing.TB, scale float64) *matrix.COO { return suiteMatrix(tb, "consph", 0.25*scale) }},
}

// BenchmarkDecodeUnits times the two decode kernels on the analogs at p = 1
// and 2 blobs, in nanoseconds per stored element, and reports the unit mix
// each ran over (runUnits). Like BenchmarkLowerRowBodies the blobs run one after the
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

// BenchmarkEncode times the two encoders, NewMatrix and NewSym, on the
// bmwcra_1 and parabolic_fem analogs at p = 1 and 2 blobs, in nanoseconds per
// encoded element, with the allocations of one build.
func BenchmarkEncode(b *testing.B) {
	for _, a := range analogs {
		if a.name != "bmwcra_1" && a.name != "parabolic_fem" {
			continue
		}
		b.Run(a.name, func(b *testing.B) {
			m := a.build(b, 1)
			s, err := core.FromCOO(m)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range []int{1, 2} {
				runEncode(b, fmt.Sprintf("csx/p%d", p), func() int { return NewMatrix(m, p, DefaultOptions()).NNZ() })
				runEncode(b, fmt.Sprintf("csx-sym/p%d", p), func() int { return NewSym(s, p, core.Indexed, DefaultOptions()).NNZLower() })
			}
		})
	}
}

// runEncode runs build, which returns the elements it encoded, as a
// sub-benchmark.
func runEncode(b *testing.B, name string, build func() int) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		elems := 0
		for i := 0; i < b.N; i++ {
			elems = build()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
	})
}

// runUnits runs product as a sub-benchmark over the blobs, in nanoseconds
// per stored element, with the unit mix: the shares of stored elements in
// delta units, 1-D runs and strips, the mean elements per unit, and per blob
// its units, strips, mean runs per strip and per-cent of strips a triangle
// closes — a blob that encodes worse than its neighbour shows here.
func runUnits(b *testing.B, name string, blobs []*Blob, elems int, product func()) {
	var share [3]float64 // delta units, 1-D runs, strips
	units := int64(0)
	mixes := make([]unitMix, len(blobs))
	for t, blob := range blobs {
		mix, err := mixOf(blob)
		if err != nil {
			b.Fatal(err)
		}
		mixes[t] = mix
		for p := Pattern(0); p < numPatterns; p++ {
			kind := 2
			switch {
			case p <= Delta32:
				kind = 0
			case p < Strip2:
				kind = 1
			}
			share[kind] += 100 * float64(mix.elems[p]) / float64(elems)
			units += mix.units[p]
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
		b.ReportMetric(share[2], "%strips")
		b.ReportMetric(float64(elems)/float64(units), "elem/unit")
		for t := range mixes {
			units, strips, runs, tri := mixes[t].census()
			b.ReportMetric(float64(units), fmt.Sprintf("units/b%d", t))
			b.ReportMetric(float64(strips), fmt.Sprintf("strips/b%d", t))
			b.ReportMetric(runs, fmt.Sprintf("runs/strip/b%d", t))
			b.ReportMetric(tri, fmt.Sprintf("%%tri/b%d", t))
		}
	})
}
