package vec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// BenchmarkVecOps times the bound vector operations a CG iteration runs, on
// the poisson-multirhs grid (144² rows) over two threads: the dot and the
// step at nv = 1 (the single-vector CG's) and at every width the serve
// batcher dispatches. MB/s counts
// every vector stream once per pass: two reads for a dot; for a CG step,
// x, p, r, ap read and x, r written by the update, then r, p read and p
// written by the direction.
//
//	go test -run '^$' -bench VecOps -benchtime 2000x ./internal/vec
func BenchmarkVecOps(b *testing.B) {
	const n, threads = 144 * 144, 2
	pool := parallel.NewPool(threads)
	defer pool.Close()
	rng := rand.New(rand.NewSource(1))
	vecs := func(nv int) (p, ap, x, r []float64) {
		v := make([][]float64, 4)
		for k := range v {
			v[k] = make([]float64, n*nv)
			for i := range v[k] {
				v[k][i] = rng.NormFloat64()
			}
		}
		return v[0], v[1], v[2], v[3]
	}
	run := func(name string, bytes int, op func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			op() // first use
			b.ResetTimer()
			for range b.N {
				op()
			}
		})
	}

	for _, nv := range []int{1, 2, 4, 8} {
		p, ap, x, r := vecs(nv)
		out, alpha, rrOld := make([]float64, nv), make([]float64, nv), make([]float64, nv)
		for v := range alpha {
			alpha[v], rrOld[v] = 1e-9, 1e30 // β ≈ 0: p stays bounded over any b.N
		}
		dots := BindMultiDots(pool, p, ap, nv)
		run(fmt.Sprintf("MultiDots/nv=%d", nv), 16*n*nv, func() { dots(out) })
		step := BindStep(pool, nil, p, ap, x, r, nv)
		run(fmt.Sprintf("MultiCGStep/nv=%d", nv), 72*n*nv, func() { step(alpha, rrOld, out, out) })
	}
}
