// Package stream implements a STREAM-style sustained-bandwidth benchmark
// (McCalpin's copy/scale/add/triad kernels) over the worker pool. Table II
// reports STREAM numbers for the paper's platforms; this package measures
// the host so the performance model can also be calibrated to the machine
// actually running the reproduction.
package stream

import (
	"time"

	"repro/internal/parallel"
)

// Result holds the best sustained bandwidth (bytes/s) per kernel.
type Result struct {
	Threads                 int
	ArrayBytes              int64
	Copy, Scale, Add, Triad float64
}

// GB returns v in GB/s (10^9, as STREAM reports).
func GB(v float64) float64 { return v / 1e9 }

// Run executes the four STREAM kernels over arrays of n float64 elements,
// repeating `reps` times and keeping the best rate (STREAM's methodology).
// n should comfortably exceed the last-level cache.
func Run(pool *parallel.Pool, n, reps int) Result {
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = 1.0
		b[i] = 2.0
	}
	const scalar = 3.0
	res := Result{Threads: pool.Size(), ArrayBytes: int64(8 * n)}

	best := func(cur *float64, bytes int64, fn func()) {
		t0 := time.Now()
		fn()
		dt := time.Since(t0).Seconds()
		if dt <= 0 {
			return
		}
		if rate := float64(bytes) / dt; rate > *cur {
			*cur = rate
		}
	}

	for r := 0; r < reps; r++ {
		best(&res.Copy, int64(16*n), func() {
			pool.RunChunked(n, func(_, lo, hi int) {
				copy(c[lo:hi], a[lo:hi])
			})
		})
		best(&res.Scale, int64(16*n), func() {
			pool.RunChunked(n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					b[i] = scalar * c[i]
				}
			})
		})
		best(&res.Add, int64(24*n), func() {
			pool.RunChunked(n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					c[i] = a[i] + b[i]
				}
			})
		})
		best(&res.Triad, int64(24*n), func() {
			pool.RunChunked(n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					a[i] = b[i] + scalar*c[i]
				}
			})
		})
	}
	return res
}
