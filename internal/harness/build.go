package harness

import (
	"time"

	"repro/internal/format"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

// Build constructs format f for the suite matrix at p = pool.Size() threads.
// The suite matrices are symmetric and every format builds on them, so a
// failure is a bug in the format table, not an input condition.
func Build(sm *SuiteMatrix, f format.ID, pool *parallel.Pool) *format.Built {
	b, err := format.Build(&sm.Matrix, f, pool, format.Options{})
	if err != nil {
		panic("harness: building " + f.String() + ": " + err.Error())
	}
	return b
}

// Cost builds format f for the suite matrix on pool and returns its exact
// cost account for the platform model.
func Cost(sm *SuiteMatrix, f format.ID, pool *parallel.Pool) perfmodel.SpMVCost {
	return Build(sm, f, pool).Cost(&sm.Matrix)
}

// MeasureSpMV runs the §V-A measurement protocol on the host: iters
// consecutive SpM×V operations with the input and output vectors swapped
// every iteration (defeating cache reuse of x), returning the wall time per
// operation. The vectors are renormalized periodically so repeated
// application of the operator cannot overflow; the renormalization cost is
// identical across formats and negligible next to the kernels.
func MeasureSpMV(mul func(x, y []float64), n, iters int) time.Duration {
	x := make([]float64, n)
	y := make([]float64, n)
	rngFill(x)
	t0 := time.Now()
	for it := 0; it < iters; it++ {
		mul(x, y)
		x, y = y, x
		if it%16 == 15 {
			renormalize(x)
		}
	}
	total := time.Since(t0)
	return total / time.Duration(iters)
}

// rngFill deterministically fills v with values in [-1, 1).
func rngFill(v []float64) {
	state := uint64(0x9E3779B97F4A7C15)
	for i := range v {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		v[i] = float64(int64(state))/float64(1<<63)*0.5 + 0.25
	}
}

// renormalize rescales v to unit max-norm (guarding against overflow across
// repeated operator applications).
func renormalize(v []float64) {
	maxAbs := 0.0
	for _, x := range v {
		if x > maxAbs {
			maxAbs = x
		} else if -x > maxAbs {
			maxAbs = -x
		}
	}
	if maxAbs == 0 || (maxAbs > 0.5 && maxAbs < 2) {
		return
	}
	s := 1 / maxAbs
	for i := range v {
		v[i] *= s
	}
}
