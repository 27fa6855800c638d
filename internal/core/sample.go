package core

import (
	"repro/internal/parallel"
)

// The kernel does not time itself: its phases are labelled where the lists
// are assembled, the pool's sampler times them (internal/parallel/sample.go),
// and each list's hook puts the kernel's labels on the pool's sample for the
// attribution engine (internal/attrib, which core cannot import: core is
// below perfmodel, and attrib needs both).

// PhaseTimes is the compute/reduction/barrier breakdown of sampled operations.
type PhaseTimes = parallel.PhaseTimes

// phaseObs carries the SpM×V metric families; spmmObs the multi-RHS (SpMM)
// families, kept separate so a mixed workload's histograms stay
// interpretable (an nv=8 sweep is not an outlier SpMV). Registered at package
// init so the full metric name space is visible on /metrics before the first
// sampled operation.
var phaseObs, spmmObs [Colored + 1]*parallel.OpMetrics

func init() {
	for m := Naive; m <= Colored; m++ {
		phaseObs[m] = parallel.NewOpMetrics("symspmv_spmv", m.String())
		spmmObs[m] = parallel.NewOpMetrics("symspmv_spmm", m.String())
	}
}

// OpClass says which kernel entry point produced a PhaseSample, because the
// per-phase byte accounting differs: MulVecDot and MulMatDot add a fused (or
// trailing) dot sweep over NV lanes, and SpMM amortizes the matrix stream
// over NV vectors.
type OpClass int

const (
	OpSpMV OpClass = iota
	OpSpMVDot
	OpSpMM
	OpSpMMDot
)

// PhaseSample is one sampled operation as fed to the sample hook: the pool's
// measurement under the kernel's labels.
type PhaseSample struct {
	Method ReductionMethod
	Op     OpClass
	NV     int // vector count: 1 for SpMV, the MulMat width for SpMM
	parallel.Sample
}

// SetSampleHook installs fn as the attribution feed of this kernel's phase
// lists (nil removes it): it observes every sampled operation, on the
// coordinating goroutine after the workers have parked — it may allocate,
// but must not call back into the kernel. Not safe to call concurrently with
// operations on the kernel; a bound hook costs the unsampled path nothing.
func (k *Kernel) SetSampleHook(fn func(PhaseSample)) { k.sampleHook = fn }

// newList wraps assembled phases as the operation (op, nv), sampled into mo.
func (k *Kernel) newList(phases []parallel.Phase, mo *parallel.OpMetrics, op OpClass, nv int) *parallel.PhaseList {
	return &parallel.PhaseList{Phases: phases, Metrics: mo, Hook: func(s *parallel.Sample) {
		if k.sampleHook != nil {
			k.sampleHook(PhaseSample{Method: k.Method, Op: op, NV: nv, Sample: *s})
		}
	}}
}

// TimedMulVec computes y = A·x once as a sampled operation, whatever the
// sampling flag says, and returns the sample's compute/reduction/barrier
// breakdown (Ops = 1). Like every sample it feeds the metrics registry, the
// hook and — when tracing is enabled — one trace span per phase per worker.
func (k *Kernel) TimedMulVec(x, y []float64) PhaseTimes {
	k.checkDims(x, y)
	k.curX, k.curY = x, y
	pt := k.pool.RunSampled(k.plain)
	k.curX, k.curY = nil, nil
	return pt
}

// TimedMulMat computes Y = A·X once for nv interleaved vectors as a sampled
// operation — the SpMM counterpart of TimedMulVec; the breakdown feeds the
// symspmv_spmm_* metric families.
func (k *Kernel) TimedMulMat(x, y []float64, nv int) (PhaseTimes, error) {
	if err := k.checkMat(x, y, nv); err != nil {
		return PhaseTimes{}, err
	}
	k.curX, k.curY = x, y
	pt := k.pool.RunSampled(k.matList(nv))
	k.curX, k.curY = nil, nil
	return pt, nil
}

// Pool reports the worker pool this kernel is bound to.
func (k *Kernel) Pool() *parallel.Pool { return k.pool }
