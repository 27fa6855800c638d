package attrib

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stream"
)

// Calibration knobs. The defaults size each STREAM array at 64 MB (three
// arrays, 192 MB footprint) so the measurement streams from memory rather
// than the last-level cache on any machine this runs on. Tests shrink them.
var (
	// CalibrationSize is the STREAM array length in float64 elements.
	CalibrationSize = 8 << 20
	// CalibrationReps is the STREAM repetition count (best rate wins).
	CalibrationReps = 2
)

var (
	calMu    sync.Mutex
	calCache = map[int]stream.Result{} // by pool size
)

// Calibrate measures (or returns the memoized) STREAM triad bandwidth for a
// pool's size: on one machine every pool of the same size sees the same memory
// system, so a bind never re-runs the tens-of-milliseconds measurement. Runs
// the pool, so call it only while no kernel operation is in flight (Bind
// time, never from the sample hook).
func Calibrate(pool *parallel.Pool) stream.Result {
	calMu.Lock()
	defer calMu.Unlock()
	if r, ok := calCache[pool.Size()]; ok {
		return r
	}
	r := stream.Run(pool, CalibrationSize, CalibrationReps)
	calCache[pool.Size()] = r
	streamGauge.Set(stream.GB(r.Triad))
	return r
}

var streamGauge = obs.NewGauge("symspmv_attrib_stream_gbps",
	"Measured STREAM triad bandwidth of the most recently calibrated pool (GB/s), the roofline denominator.")
