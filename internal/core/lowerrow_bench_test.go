package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/reorder"
)

// workloadAnalogs builds the four matrices of the repository benchmark
// (benchmark/workloads.go) at its sizes: the scattered stencil in natural and
// RCM order, the block-banded FEM matrix, and the 144² Poisson grid.
func workloadAnalogs(tb testing.TB) (names []string, mats []*SSS) {
	tb.Helper()
	add := func(name string, m *matrix.COO) {
		s, err := FromCOO(m)
		if err != nil {
			tb.Fatal(err)
		}
		names, mats = append(names, name), append(mats, s)
	}
	suite := func(name string) *matrix.COO {
		sp, err := gen.SpecByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		m, err := gen.Generate(sp, 0.25)
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
	fem := suite("parabolic_fem")
	add("parabolic_fem", fem)
	perm, err := reorder.RCM(fem)
	if err != nil {
		tb.Fatal(err)
	}
	rcm, err := fem.Permute(perm)
	if err != nil {
		tb.Fatal(err)
	}
	add("parabolic_fem-rcm", rcm)
	add("bmwcra_1", suite("bmwcra_1"))
	const side = 144
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
	add("poisson144", grid.Normalize())
	return names, mats
}

// BenchmarkLowerRowBodies times every multiply cell of the lower-row template
// (lowerrow_gen.go) on the four workload matrices, reporting nanoseconds per
// stored non-zero. A cell runs inside its operation's phase list — multiply,
// then the reduction that re-zeroes the local vectors it wrote — and the list
// runs serially over all thread ids on the benchmark's goroutine: no pool, so
// no hand-off or barrier noise, and the same work whatever the host's core
// count. The partition is the benchmark's (two threads). Kind cells run on a
// structural copy of the matrix (UVal = Val), lane cells at nv = 2, 4, 8 and,
// for the generic body, 3.
func BenchmarkLowerRowBodies(b *testing.B) {
	const p = 2
	pool := parallel.NewPool(p)
	defer pool.Close()
	names, mats := workloadAnalogs(b)
	for i, s := range mats {
		structural := *s
		structural.Kind, structural.UVal = Structural, append([]float64(nil), s.Val...)
		for _, method := range []ReductionMethod{Naive, Indexed, Colored} {
			for _, kind := range []*SSS{s, &structural} {
				k := NewKernel(kind, method, pool)
				label := fmt.Sprintf("%s/%s", names[i], method)
				if kind.Kind != Sym {
					label += "-kind"
				}
				runSerially(b, label, k, k.plain, 1)
				if kind.Kind != Sym {
					continue
				}
				for _, nv := range []int{2, 3, 4, 8} {
					runSerially(b, fmt.Sprintf("%s-nv%d", label, nv), k, k.matList(nv), nv)
				}
			}
		}
	}
}

// runSerially times one phase list of k over nv interleaved vectors, every
// phase over every thread id in order on the calling goroutine.
func runSerially(b *testing.B, name string, k *Kernel, list *parallel.PhaseList, nv int) {
	x := make([]float64, k.S.N*nv)
	y := make([]float64, k.S.N*nv)
	for i := range x {
		x[i] = 1 + float64(i%7)/8
	}
	b.Run(name, func(b *testing.B) {
		k.curX, k.curY = x, y
		defer func() { k.curX, k.curY = nil, nil }()
		for i := 0; i < b.N; i++ {
			for _, ph := range list.Phases {
				for tid := 0; tid < k.p; tid++ {
					ph.Fn(tid)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k.S.NNZLower()), "ns/nnz")
	})
}
