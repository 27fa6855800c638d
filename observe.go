package symspmv

import (
	"repro/internal/attrib"
)

// EnableAttribution binds the roofline attribution engine (internal/attrib)
// to a kernel: every sampled operation (obs.SetSampling) then feeds achieved
// GB/s, roofline fraction, and model error per (method, phase) into
// the symspmv_attrib_* metric families and the /debug/attrib snapshot, and —
// when tracing is enabled — annotates the Chrome trace's coordinator lane
// with the operation's roofline percentage.
//
// The first bind for a pool shape runs a short STREAM calibration on the
// kernel's pool (memoized for the process), so call it right after kernel
// construction, not mid-solve. Returns (false, nil) for kernels attribution
// does not model — the non-SSS formats, which are sampled like any other but
// not yet priced per phase. When sampling stays disabled the binding is
// inert: the hot path never reaches the hook.
func EnableAttribution(k Kernel) (bool, error) {
	bk, ok := k.(*boundKernel)
	if !ok || bk.b.Kernel == nil {
		return false, nil
	}
	if err := attrib.Bind(bk.b.Kernel); err != nil {
		return false, err
	}
	return true, nil
}
