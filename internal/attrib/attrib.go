// Package attrib is the roofline attribution engine: it joins the measured
// per-phase times of every sampled kernel operation (core.PhaseSample) with
// the perfmodel-predicted traffic of that kernel and the machine's measured
// STREAM bandwidth, and answers — live — "is this run at roofline, and if
// not, which phase is off?".
//
// Three numbers per (method, phase):
//
//	achieved GB/s     = predicted phase bytes / measured phase seconds
//	roofline fraction = achieved GB/s / measured STREAM triad GB/s
//	model error       = measured seconds / model-predicted seconds
//
// The achieved rate uses the *predicted* byte count as numerator — the bytes
// the data structures make necessary — so a fraction near 1 means the kernel
// streams its necessary bytes at the speed the machine can stream at all,
// the Schubert/Hager/Fehske criterion for "as fast as the hardware allows".
// Fractions above 1 mean the working set fit in cache and the run beat the
// memory roofline (see DESIGN.md §15 for this and other blind spots).
//
// The model error divides by an independent prediction — a CalibratedHost
// platform whose phase times carry flop and barrier terms — so it is a
// separate diagnostic from the roofline fraction, not its reciprocal.
//
// Results are exported three ways: Prometheus gauges/histograms on the
// default obs registry, the /debug/attrib JSON snapshot (handler.go), and a
// coordinator-lane span in the Chrome trace annotating each sampled
// operation with its roofline percentage.
package attrib

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/stream"
)

// FractionBuckets are the roofline-fraction histogram bounds: 10% steps to
// 150%, beyond which a sample lands in the overflow (cache-resident) bucket.
var FractionBuckets = []float64{
	0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5,
}

// entryKey identifies one attribution stream.
type entryKey struct {
	Method string
	Phase  string // "compute" or "reduction"
}

// entry accumulates one attribution stream. Rates are ratios of sums, so
// they stay well-defined as samples from operations of different sizes (and
// different kernels of the same method) accumulate.
type entry struct {
	ops          int64
	sumBytes     float64 // predicted bytes over all sampled ops
	sumMeasNs    float64
	sumModelNs   float64
	rooflineGBs  float64
	achieved     *obs.Gauge
	fraction     *obs.Gauge
	modelError   *obs.Gauge
	fractionHist *obs.Histogram
}

// Engine is the attribution accumulator. One process-wide instance (Default)
// backs the metrics and the /debug/attrib endpoint; kernels feed it through
// Bind.
type Engine struct {
	mu      sync.Mutex
	entries map[entryKey]*entry
	order   []entryKey // insertion order, for a stable snapshot

	// Interned trace names: "attrib/<method> <bin>% of roofline". Bounded:
	// methods × (16 bins + 1 overflow).
	traceNames map[string]obs.NameID
	argName    obs.NameID
}

func newEngine() *Engine {
	return &Engine{
		entries:    map[entryKey]*entry{},
		traceNames: map[string]obs.NameID{},
		argName:    obs.RegisterName("roofline_pct"),
	}
}

// Default is the process-wide attribution engine.
var Default = newEngine()

// binding joins one kernel to the engine: its predicted cost, the pool size
// and the calibrated bandwidth.
type binding struct {
	eng      *Engine
	method   core.ReductionMethod
	p        int
	cost     perfmodel.SpMVCost
	pl       perfmodel.Platform // CalibratedHost, the independent model
	triadGBs float64            // the machine roofline
	n        int64              // vector elements
}

// Bind attaches the default engine to a kernel: computes the kernel's
// predicted traffic, calibrates (or reuses) the pool's STREAM bandwidth, and
// installs the sample hook so every sampled operation feeds the attribution
// streams. Call after kernel construction, before serving operations; the
// hook itself never measures bandwidth. The disabled-sampling hot path never
// reaches the hook, so binding costs nothing when sampling is off.
func Bind(k *core.Kernel) error {
	return Default.Bind(k)
}

// Bind is the method form of the package-level Bind.
func (e *Engine) Bind(k *core.Kernel) error {
	pool := k.Pool()
	if pool == nil {
		return fmt.Errorf("attrib: kernel has no pool")
	}
	b := &binding{
		eng:      e,
		method:   k.Method,
		p:        pool.Size(),
		cost:     perfmodel.SSSCost(k),
		triadGBs: stream.GB(Calibrate(pool).Triad),
		n:        int64(k.S.N),
	}
	b.pl = perfmodel.CalibratedHost(b.p, b.triadGBs)
	k.SetSampleHook(b.observe)
	return nil
}

// observe is the sample hook: one sampled operation in, attribution streams
// updated. Runs on the coordinating goroutine after the workers have parked.
func (b *binding) observe(s core.PhaseSample) {
	c := b.cost
	if s.NV > 1 {
		c = c.SpMM(s.NV)
	}
	computeBytes, redBytes := c.MultBytes, c.RedBytes
	if s.Op == core.OpSpMVDot || s.Op == core.OpSpMMDot {
		// The fused inner product adds vector traffic the plain product's
		// cost does not carry, NV lanes of it (core.ReductionMethod.DotBytes).
		mult, red := b.method.DotBytes(b.n, s.NV)
		computeBytes, redBytes = computeBytes+mult, redBytes+red
	}
	modelMultNs := c.MultSeconds(b.pl, b.p) * 1e9
	modelRedNs := c.RedSeconds(b.pl, b.p) * 1e9

	method := b.method.String()
	e := b.eng
	e.mu.Lock()
	e.observeLocked(method, "compute", b.triadGBs,
		float64(computeBytes), float64(s.PT.Compute.Nanoseconds()), modelMultNs)
	e.observeLocked(method, "reduction", b.triadGBs,
		float64(redBytes), float64(s.PT.Reduction.Nanoseconds()), modelRedNs)
	frac := 0.0
	if wallNs := float64(s.EndNs - s.StartNs); wallNs > 0 && b.triadGBs > 0 {
		frac = (float64(computeBytes+redBytes) / wallNs) / b.triadGBs
	}
	name := e.traceNameLocked(method, frac)
	arg := e.argName
	e.mu.Unlock()

	if obs.TracingEnabled() {
		obs.TraceSpanArg(obs.LaneCoordinator, name, s.StartNs, s.EndNs,
			arg, int64(frac*100+0.5))
	}
}

// observeLocked folds one phase measurement into its attribution stream and
// refreshes the exported gauges. Zero-byte phases (e.g. the colored method's
// nonexistent reduction, or a single-thread Indexed kernel whose conflict
// index is empty) and unmeasured phases are skipped — a rate with a zero
// numerator or denominator attributes nothing.
func (e *Engine) observeLocked(method, phase string, rooflineGBs, bytes, measNs, modelNs float64) {
	if bytes <= 0 || measNs <= 0 {
		return
	}
	key := entryKey{Method: method, Phase: phase}
	en := e.entries[key]
	if en == nil {
		en = &entry{
			rooflineGBs: rooflineGBs,
			achieved: obs.NewGauge("symspmv_attrib_achieved_gbps",
				"Achieved bandwidth of one kernel phase: perfmodel-predicted bytes over measured critical-path seconds (GB/s).",
				"method", method, "phase", phase),
			fraction: obs.NewGauge("symspmv_attrib_roofline_fraction",
				"Achieved bandwidth as a fraction of the measured STREAM triad roofline; ~1 is the hardware limit, >1 means cache-resident.",
				"method", method, "phase", phase),
			modelError: obs.NewGauge("symspmv_attrib_model_error",
				"Measured over model-predicted phase seconds (calibrated-host perfmodel); 1 is a perfect prediction.",
				"method", method, "phase", phase),
			fractionHist: obs.NewHistogram("symspmv_attrib_fraction",
				"Per-operation roofline fraction of one kernel phase.",
				FractionBuckets, "method", method, "phase", phase),
		}
		e.entries[key] = en
		e.order = append(e.order, key)
	}
	en.ops++
	en.sumBytes += bytes
	en.sumMeasNs += measNs
	en.sumModelNs += modelNs
	en.rooflineGBs = rooflineGBs

	gbs := en.sumBytes / en.sumMeasNs // bytes/ns ≡ GB/s
	en.achieved.Set(gbs)
	if rooflineGBs > 0 {
		en.fraction.Set(gbs / rooflineGBs)
	}
	if en.sumModelNs > 0 {
		en.modelError.Set(en.sumMeasNs / en.sumModelNs)
	}
	if rooflineGBs > 0 {
		en.fractionHist.Observe((bytes / measNs) / rooflineGBs)
	}
}

// traceNameLocked interns the quantized span name for a roofline fraction:
// 10% bins up to 150%, one overflow bin. The bin count bounds the interned
// name table no matter how many operations are traced.
func (e *Engine) traceNameLocked(method string, frac float64) obs.NameID {
	var label string
	if frac >= 1.5 {
		label = method + " >150% of roofline"
	} else {
		bin := int(frac * 10)
		label = fmt.Sprintf("%s %d-%d%% of roofline", method, bin*10, bin*10+10)
	}
	key := "attrib/" + label
	id, ok := e.traceNames[key]
	if !ok {
		id = obs.RegisterName(key)
		e.traceNames[key] = id
	}
	return id
}
