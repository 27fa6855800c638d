package parallel

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The sampler is the one timed path of the library. A phase says what it is
// where its list is assembled; when sampling is on the pool reads the clock
// around every phase on every worker, writes the trace spans, forms the
// critical path and hands one Sample to the list's metrics and hook.

// PhaseTimes is the measured breakdown of one or more sampled operations.
// Compute and Reduction are critical-path sums: per phase the slowest
// worker's in-phase time, summed over the phases of that kind. Barrier is
// the remaining wall time — spin-barrier crossings, the hand-off,
// and worker-start skew. Per operation, Wall = Compute + Reduction + Barrier
// whenever Barrier is nonzero.
type PhaseTimes struct {
	Compute   time.Duration
	Reduction time.Duration
	Barrier   time.Duration
	Wall      time.Duration
	Phases    int // phase count of one operation (colored: 1 + colors)
	Ops       int // operations accumulated (1 per sample; summed by Add)
}

// Add accumulates o into t for averaging over repeated operations: the
// durations sum, Ops counts the operations (the denominator of any average),
// and Phases carries the per-operation phase count, which is constant across
// operations of the same kernel.
func (t *PhaseTimes) Add(o PhaseTimes) {
	t.Compute += o.Compute
	t.Reduction += o.Reduction
	t.Barrier += o.Barrier
	t.Wall += o.Wall
	t.Phases = o.Phases
	t.Ops += max(o.Ops, 1) // a hand-built single-operation breakdown counts as one
}

// PerOp returns the per-operation average of an accumulated breakdown: every
// duration divided by Ops (a hand-built breakdown with Ops == 0 counts as
// one), with Ops reset to 1. All consumers that report "time per operation"
// must divide by Ops, not by an iteration count they happen to have on hand —
// the two disagree as soon as a breakdown is accumulated with Add.
func (t PhaseTimes) PerOp() PhaseTimes {
	if t.Ops <= 1 {
		t.Ops = 1
		return t
	}
	d := time.Duration(t.Ops)
	return PhaseTimes{
		Compute:   t.Compute / d,
		Reduction: t.Reduction / d,
		Barrier:   t.Barrier / d,
		Wall:      t.Wall / d,
		Phases:    t.Phases,
		Ops:       1,
	}
}

// OpMetrics is the metric set of one labelled operation: a counter of sampled
// operations plus critical-path phase and wall histograms. Registration is
// get-or-create, so packages declare theirs in package-level vars and the
// whole name space shows on /metrics before the first sample.
type OpMetrics struct {
	Ops       *obs.Counter
	Compute   *obs.Histogram
	Reduction *obs.Histogram
	Barrier   *obs.Histogram
	Wall      *obs.Histogram
}

// NewOpMetrics registers the families <stem>_ops_total, <stem>_phase_seconds
// and <stem>_wall_seconds under method=label.
func NewOpMetrics(stem, label string) *OpMetrics {
	phase := func(name string) *obs.Histogram {
		return obs.NewHistogram(stem+"_phase_seconds",
			"Critical-path phase time per sampled operation.",
			obs.DurationBuckets, "method", label, "phase", name)
	}
	return &OpMetrics{
		Ops:       obs.NewCounter(stem+"_ops_total", "Sampled operations.", "method", label),
		Compute:   phase("compute"),
		Reduction: phase("reduction"),
		Barrier:   phase("barrier"),
		Wall: obs.NewHistogram(stem+"_wall_seconds",
			"Wall time per sampled operation.", obs.DurationBuckets, "method", label),
	}
}

// Sample is one sampled operation as the pool measured it.
type Sample struct {
	PT PhaseTimes
	// StartNs/EndNs bound the operation on the obs.Now clock, so a hook can
	// annotate the same window the phase spans cover.
	StartNs, EndNs int64
}

// Serial-fraction telemetry: of the sampled phases that ran on more than one
// worker, the share in which no two workers' [start, end] intervals
// overlapped — the phase's halves ran one after the other. Process-wide, like
// the handoff counter.
var (
	sampledPhases, serialPhases atomic.Int64

	serialFraction = obs.NewGauge("symspmv_pool_serial_fraction",
		"Share of sampled multi-worker phases in which no two workers ran at the same time.")
)

// sampler is the pool-owned state of a timed run: one start and one end
// stamp per (phase, worker), reused across samples so steady-state sampling
// allocates only what the hook allocates.
type sampler struct {
	tracing    bool
	start, end []int64
	out        Sample
}

// timed runs ph on worker tid between two clock reads.
func (s *sampler) timed(ph *Phase, slot, tid int) {
	t0 := obs.Now()
	ph.Fn(tid)
	t1 := obs.Now()
	s.start[slot], s.end[slot] = t0, t1
	if s.tracing {
		obs.TraceSpan(tid, ph.Name, t0, t1)
	}
}

// sample runs l once with every phase timed on every worker, synchronizing
// exactly like the untimed run (it is the same run), and feeds the result to
// the list's metrics and hook.
func (p *Pool) sample(l *PhaseList) PhaseTimes {
	s := &p.sampler
	nph := len(l.Phases)
	if need := nph * p.n; len(s.start) < need {
		s.start, s.end = make([]int64, need), make([]int64, need)
	}
	p.timed, s.tracing = true, obs.TracingEnabled() // dispatch switches timed off again
	t0 := obs.Now()
	p.dispatch(l.Phases)
	end := obs.Now()

	out := &s.out
	*out = Sample{PT: PhaseTimes{Wall: time.Duration(end - t0), Phases: nph, Ops: 1}, StartNs: t0, EndNs: end}
	for i := range l.Phases {
		starts, ends := s.start[i*p.n:(i+1)*p.n], s.end[i*p.n:(i+1)*p.n]
		crit := int64(0)
		for tid := range starts {
			crit = max(crit, ends[tid]-starts[tid])
		}
		if l.Phases[i].Kind == PhaseReduction {
			out.PT.Reduction += time.Duration(crit)
		} else {
			out.PT.Compute += time.Duration(crit)
		}
		if p.n > 1 {
			n := sampledPhases.Add(1)
			if disjoint(starts, ends) {
				serialPhases.Add(1)
			}
			serialFraction.Set(float64(serialPhases.Load()) / float64(n))
		}
	}
	if worked := out.PT.Compute + out.PT.Reduction; out.PT.Wall > worked {
		out.PT.Barrier = out.PT.Wall - worked
	}
	if m := l.Metrics; m != nil {
		m.Ops.Inc()
		m.Compute.Observe(out.PT.Compute.Seconds())
		m.Reduction.Observe(out.PT.Reduction.Seconds()) // an exact zero for a list without reduction phases
		m.Barrier.Observe(out.PT.Barrier.Seconds())
		m.Wall.Observe(out.PT.Wall.Seconds())
	}
	if l.Hook != nil {
		l.Hook(out)
	}
	return out.PT
}

// disjoint reports whether no two of the intervals [starts[i], ends[i]]
// overlap.
func disjoint(starts, ends []int64) bool {
	for a := range starts {
		for b := a + 1; b < len(starts); b++ {
			if starts[a] < ends[b] && starts[b] < ends[a] {
				return false
			}
		}
	}
	return true
}
