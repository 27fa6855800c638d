package perfmodel

import "time"

// MeasureSpMV runs the §V-A measurement protocol on the host — the measured
// counterpart of SpMVCost.Seconds, used by the experiment harness and the
// autotuner's trials alike: one untimed warm-up operation absorbs cold
// caches, then iters consecutive SpM×V operations with the input and output
// vectors swapped every iteration (defeating cache reuse of x), returning
// the wall time per operation. The vectors are renormalized periodically so
// repeated application of the operator cannot overflow; the renormalization
// cost is identical across formats and negligible next to the kernels.
func MeasureSpMV(mul func(x, y []float64), n, iters int) time.Duration {
	x := InputVector(n)
	y := make([]float64, n)
	mul(x, y)
	x, y = y, x
	renormalize(x)
	t0 := time.Now()
	for it := 0; it < iters; it++ {
		mul(x, y)
		x, y = y, x
		if it%16 == 15 {
			renormalize(x)
		}
	}
	return time.Since(t0) / time.Duration(iters)
}

// InputVector returns the protocol's deterministic input: n values in
// [-0.25, 0.75) from a fixed xorshift sequence.
func InputVector(n int) []float64 {
	v := make([]float64, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range v {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		v[i] = float64(int64(state))/float64(1<<63)*0.5 + 0.25
	}
	return v
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
