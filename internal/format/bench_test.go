package format

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// BenchmarkReordered times Matrix.Reordered on the parabolic_fem analog at
// scale 0.25 (131 456 rows, a scrambled 2-D stencil): RCM on the COO form and
// P·A·Pᵀ permuted straight into the SSS, what ReorderRCM and every reordered
// tuner candidate pay. internal/reorder's BenchmarkRCM/rcm+permute is the
// COO round trip it replaced, less the second SSS build.
func BenchmarkReordered(b *testing.B) {
	sp, err := gen.SpecByName("parabolic_fem")
	if err != nil {
		b.Fatal(err)
	}
	m, err := gen.Generate(sp, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.FromCOO(m)
	if err != nil {
		b.Fatal(err)
	}
	src := NewMatrix(s, m)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, _, err := src.Reordered(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
}
