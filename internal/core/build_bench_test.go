package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/parallel"
)

// BenchmarkKernelBuild times the SSS-indexed kernel's set-up — Validate, the
// partition, TouchedColumns and the conflict index — on the analogs of two
// benchmark workloads at their size: the scattered stencil (parabolic_fem,
// natural order) and the block band (bmwcra_1), at p = 2 and 4.
func BenchmarkKernelBuild(b *testing.B) {
	for _, m := range []struct{ name, spec string }{{"scattered", "parabolic_fem"}, {"banded", "bmwcra_1"}} {
		sp, err := gen.SpecByName(m.spec)
		if err != nil {
			b.Fatal(err)
		}
		coo, err := gen.Generate(sp, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		s, err := FromCOO(coo)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range []int{2, 4} {
			b.Run(fmt.Sprintf("%s/p=%d", m.name, p), func(b *testing.B) {
				pool := parallel.NewPool(p)
				defer pool.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					NewKernel(s, Indexed, pool)
				}
			})
		}
	}
}
