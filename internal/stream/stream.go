// Package stream implements the STREAM triad (McCalpin's a = b + s·c) over
// the worker pool: the host's sustained bandwidth, the one yardstick Table II,
// attribution's roofline and the benchmark read. Table II reports STREAM
// numbers for the paper's platforms; this package measures the host so the
// performance model can also be calibrated to the machine actually running
// the reproduction.
package stream

import (
	"time"

	"repro/internal/parallel"
)

// Result holds the best sustained triad bandwidth (bytes/s).
type Result struct {
	Threads    int
	ArrayBytes int64
	Triad      float64
}

// GB returns v in GB/s (10^9, as STREAM reports).
func GB(v float64) float64 { return v / 1e9 }

// Run times the triad over arrays of n float64 elements, repeating `reps`
// times and keeping the best rate (STREAM's methodology). n should
// comfortably exceed the last-level cache.
func Run(pool *parallel.Pool, n, reps int) Result {
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		a[i], b[i], c[i] = 1.0, 2.0, 1.0
	}
	res := Result{Threads: pool.Size(), ArrayBytes: int64(8 * n)}
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		triad(pool, a, b, c, 3.0)
		if dt := time.Since(t0).Seconds(); dt > 0 {
			res.Triad = max(res.Triad, float64(24*n)/dt)
		}
	}
	return res
}

// triad sets a = b + s·c, the pool's threads each on a chunk.
func triad(pool *parallel.Pool, a, b, c []float64, s float64) {
	pool.RunChunked(len(a), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = b[i] + s*c[i]
		}
	})
}
