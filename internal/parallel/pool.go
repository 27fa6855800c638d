// Package parallel provides a persistent worker pool with barrier semantics
// and a low-latency multi-phase dispatch path.
//
// The paper's implementation uses explicit Pthreads bound to cores and reuses
// the same threads across the 128 SpM×V iterations of the measurement
// protocol. Spawning fresh goroutines per kernel invocation would charge the
// kernels with scheduler overhead the paper does not have, so Pool keeps p
// long-lived workers that block on a dispatch channel and signal completion
// through a shared WaitGroup.
//
// A single channel dispatch (one coordinator handoff) costs on the order of
// microseconds at high worker counts — small next to a large SpM×V but
// dominant for the short phases of a CG iteration on small matrices. The
// multi-phase path (RunPhaseList, and RunPhases for unlabelled bodies)
// therefore keeps the workers resident across consecutive phases, separating
// them with a SpinBarrier instead of returning to the coordinator, so a
// multiply→reduce chain or a fused axpy/dot/xpay chain pays one handoff per
// call instead of one per phase.
//
// Every kernel and vector operation reaches the pool as a PhaseList whose
// phases say what they are, so the dispatch is also the one place where
// operations are timed (sample.go).
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// poolHandoffs counts coordinator→worker dispatch cycles across all pools in
// the process — the telemetry view of the per-pool Handoffs() counter. An
// atomic add per dispatch, no gating needed.
var poolHandoffs = obs.NewCounter("symspmv_pool_handoffs_total",
	"Coordinator-to-worker dispatch cycles issued across all pools.")

// PhaseMode selects how a multi-phase list separates consecutive phases.
type PhaseMode int

const (
	// PhaseAuto uses the resident spin-barrier path when the pool is not
	// oversubscribed (Size() ≤ GOMAXPROCS) and falls back to per-phase
	// channel dispatch otherwise, where spinning workers would steal the
	// processor from the workers they are waiting for.
	PhaseAuto PhaseMode = iota
	// PhaseSpin always keeps workers resident across phases with the spin
	// barrier between them (the barrier itself degrades to Gosched-yielding
	// when oversubscribed, so this stays correct at any GOMAXPROCS).
	PhaseSpin
	// PhaseChannel always dispatches each phase as a separate channel
	// round-trip — the pre-fusion behaviour, kept for A/B benchmarking.
	PhaseChannel
)

// PhaseScope selects which workers a phase boundary synchronizes in a
// RunPhaseList chain.
type PhaseScope uint8

const (
	// PhaseGlobal closes the phase with the whole-pool barrier: every worker
	// sees every other worker's writes before the next phase starts. The
	// zero value, and the semantics of every RunPhases boundary.
	PhaseGlobal PhaseScope = iota
	// PhaseLocal closes the phase with the worker's domain barrier only:
	// workers of one domain synchronize among themselves and proceed without
	// waiting for other domains. Correct only when the next phase reads
	// nothing written by another domain in this phase. On a single-domain
	// pool the domain barrier is the global barrier, so PhaseLocal degrades
	// to PhaseGlobal exactly.
	PhaseLocal
)

// PhaseKind says which side of the paper's split a phase's time belongs to:
// the multiply/compute work, or the reduction repairing write conflicts.
type PhaseKind uint8

const (
	PhaseCompute PhaseKind = iota
	PhaseReduction
)

// Phase is one step of an operation and says what it is: the body, the scope
// of the barrier separating it from the next phase (irrelevant for the final
// phase — completion is signalled through the pool's WaitGroup), and the span
// name and kind the sampler (sample.go) files its time under. The labels are
// set once, where the list is assembled.
type Phase struct {
	Fn    func(tid int)
	Scope PhaseScope
	Name  obs.NameID
	Kind  PhaseKind
}

// ComputePhase labels fn as compute work under the span name.
func ComputePhase(name string, fn func(tid int)) Phase {
	return Phase{Fn: fn, Name: obs.RegisterName(name)}
}

// ReductionPhase labels fn as reduction work under the span name.
func ReductionPhase(name string, fn func(tid int)) Phase {
	return Phase{Fn: fn, Name: obs.RegisterName(name), Kind: PhaseReduction}
}

// Local returns the phase closed by its worker's domain barrier instead of
// the whole-pool one.
func (ph Phase) Local() Phase {
	ph.Scope = PhaseLocal
	return ph
}

// PhaseList is one operation in the form the pool runs: its labelled phases,
// assembled once over the owner's operand slots so running it allocates
// nothing, and where its samples go — every sampled run feeds Metrics, then
// Hook, on the coordinating goroutine after the workers have parked (the hook
// may allocate but must not run anything on the pool). Either may be nil.
type PhaseList struct {
	Phases  []Phase
	Metrics *OpMetrics
	Hook    func(*Sample)
}

// Pool is a fixed-size set of persistent workers. A Pool must be created with
// NewPool and released with Close.
//
// Workers are grouped into domains (NewPoolDomains): contiguous worker
// ranges, one per NUMA domain, each with its own sense-reversing barrier so
// a PhaseLocal boundary costs an intra-domain round instead of a machine-wide
// one. NewPool creates the degenerate single-domain pool.
//
// Ownership: a Pool is owned by a single coordinating goroutine. Run,
// RunChunked, RunPhases, RunPhaseList, RunSampled and Close must all be issued
// from that goroutine (or otherwise serialized by the caller); the Pool detects misuse
// — Run after Close, Close during a Run, overlapping Runs — and panics
// deterministically instead of racing.
type Pool struct {
	n       int
	work    []chan func(tid int)
	wg      sync.WaitGroup
	barrier *SpinBarrier
	mode    PhaseMode

	// Domain structure: workers [domLo[d], domLo[d+1]) belong to domain d and
	// share domBar[d]. For a single-domain pool domBar[0] is the global
	// barrier itself.
	domains int
	domOf   []int32
	domBar  []*SpinBarrier
	domLo   []int

	closed   atomic.Bool
	busy     atomic.Bool
	handoffs atomic.Int64

	// cur is the list in flight and [lo, hi) the phases of the current
	// handoff; run sets them before each dispatch (the channel sends publish
	// them to the workers) and phaseFn, bound once to phaseWorker, iterates
	// them, so running a list allocates nothing. bare is the reusable backing
	// of RunPhases' unlabelled list, sampler the state of a timed run
	// (sample.go).
	cur     []Phase
	lo, hi  int
	phaseFn func(tid int)
	bare    []Phase
	sampler sampler
}

// NewPool starts n persistent workers in a single domain. n must be positive.
func NewPool(n int) *Pool {
	return NewPoolDomains(n, 1)
}

// NewPoolDomains starts n persistent workers grouped into domains contiguous
// sub-pools (worker tid belongs to domain Chunk-style: earlier domains get
// the remainder workers, matching partition.ByNNZDomains' worker counts).
// domains is clamped to [1, n] so every domain owns at least one worker; a
// single domain reproduces NewPool exactly.
func NewPoolDomains(n, domains int) *Pool {
	if n <= 0 {
		panic(fmt.Sprintf("parallel: NewPoolDomains(%d, %d): size must be positive", n, domains))
	}
	if domains < 1 {
		domains = 1
	}
	if domains > n {
		domains = n
	}
	p := &Pool{
		n:       n,
		work:    make([]chan func(tid int), n),
		barrier: NewSpinBarrier(n),
		domains: domains,
		domOf:   make([]int32, n),
		domBar:  make([]*SpinBarrier, domains),
		domLo:   make([]int, domains+1),
	}
	for d := 0; d < domains; d++ {
		lo, hi := Chunk(n, domains, d)
		p.domLo[d] = lo
		p.domLo[d+1] = hi
		for t := lo; t < hi; t++ {
			p.domOf[t] = int32(d)
		}
		if domains == 1 {
			p.domBar[d] = p.barrier
		} else {
			p.domBar[d] = NewSpinBarrier(hi - lo)
		}
	}
	p.phaseFn = p.phaseWorker
	for i := 0; i < n; i++ {
		p.work[i] = make(chan func(tid int))
		go p.worker(i)
	}
	return p
}

func (p *Pool) worker(tid int) {
	for fn := range p.work[tid] {
		fn(tid)
		p.wg.Done()
	}
}

// phaseWorker runs phases [lo, hi) of the current list on worker tid — timed
// while the sampler is on — separated by the barrier each phase's scope names.
func (p *Pool) phaseWorker(tid int) {
	bar := p.domBar[p.domOf[tid]]
	for i := p.lo; i < p.hi; i++ {
		ph := &p.cur[i]
		if p.sampler.on {
			p.sampler.timed(ph, i*p.n+tid, tid)
		} else {
			ph.Fn(tid)
		}
		if i == p.hi-1 {
			break
		}
		if ph.Scope == PhaseLocal {
			bar.Wait()
		} else {
			p.barrier.Wait()
		}
	}
}

// Size reports the number of workers.
func (p *Pool) Size() int { return p.n }

// Domains reports the number of worker domains (1 for NewPool pools).
func (p *Pool) Domains() int { return p.domains }

// DomainOf reports the domain worker tid belongs to.
func (p *Pool) DomainOf(tid int) int { return int(p.domOf[tid]) }

// DomainWorkers reports the contiguous worker range [lo, hi) of domain d.
func (p *Pool) DomainWorkers(d int) (lo, hi int) {
	return p.domLo[d], p.domLo[d+1]
}

// SetPhaseMode overrides how multi-phase lists separate phases (default
// PhaseAuto). Like every other Pool method it must be called by the owning
// goroutine.
func (p *Pool) SetPhaseMode(m PhaseMode) { p.mode = m }

// Handoffs reports the number of coordinator→worker dispatch cycles issued so
// far: every Run counts one; a phase list counts one on the resident path and
// one per phase on the channel-fallback path. Tests use it to assert phase
// fusion actually collapsed the barrier chain.
func (p *Pool) Handoffs() int64 { return p.handoffs.Load() }

// ResetHandoffs zeroes the dispatch counter.
func (p *Pool) ResetHandoffs() { p.handoffs.Store(0) }

// begin guards a dispatch: panics deterministically on misuse.
func (p *Pool) begin(op string) {
	if p.closed.Load() {
		panic("parallel: " + op + " on closed Pool")
	}
	if !p.busy.CompareAndSwap(false, true) {
		panic("parallel: concurrent " + op + " on Pool (a Pool is owned by a single goroutine)")
	}
}

func (p *Pool) end() { p.busy.Store(false) }

// dispatch sends fn to every worker and waits for completion — one
// coordinator handoff.
func (p *Pool) dispatch(fn func(tid int)) {
	p.handoffs.Add(1)
	poolHandoffs.Inc()
	p.wg.Add(p.n)
	for i := 0; i < p.n; i++ {
		p.work[i] <- fn
	}
	p.wg.Wait()
}

// Run executes fn(tid) on every worker, tid in [0, Size()), and blocks until
// all workers have finished (a barrier).
func (p *Pool) Run(fn func(tid int)) {
	p.begin("Run")
	defer p.end()
	p.dispatch(fn)
}

// resident reports whether a multi-phase list keeps the workers resident
// between phases (one handoff, spin barriers) or dispatches phase by phase.
func (p *Pool) resident() bool {
	switch p.mode {
	case PhaseAuto:
		return p.n <= runtime.GOMAXPROCS(0)
	case PhaseChannel:
		return false
	}
	return true
}

// run hands a non-empty list to the workers: in one handoff when the workers
// stay resident (or there is a single phase), else one handoff per phase.
func (p *Pool) run(phases []Phase) {
	p.cur = phases
	if len(phases) == 1 || p.resident() {
		p.lo, p.hi = 0, len(phases)
		p.dispatch(p.phaseFn)
	} else {
		for i := range phases {
			p.lo, p.hi = i, i+1
			p.dispatch(p.phaseFn)
		}
	}
	p.cur = nil
}

// RunPhases executes the given unlabelled phases in order on every worker:
// within a phase all workers run concurrently, and no worker starts phase i+1
// before every worker has finished phase i. On the resident path the whole
// chain costs a single coordinator handoff, with only a spin-barrier round
// between phases; under PhaseChannel (or PhaseAuto when oversubscribed) each
// phase is a separate channel dispatch, identical to calling Run per phase.
// Having no labels, the chain is never sampled.
func (p *Pool) RunPhases(phases ...func(tid int)) {
	if len(phases) == 0 {
		return
	}
	p.begin("RunPhases")
	defer p.end()
	p.bare = p.bare[:0]
	for _, fn := range phases {
		p.bare = append(p.bare, Phase{Fn: fn})
	}
	p.run(p.bare)
	clear(p.bare)
}

// RunPhaseList executes a labelled operation: RunPhases with per-phase
// barrier scopes — a PhaseGlobal boundary synchronizes the whole pool, a
// PhaseLocal boundary only the worker's domain, the two-level structure the
// hierarchical reduction runs on — and, while obs.SamplingEnabled(), timed
// (sample.go); unsampled, that one atomic load is its whole telemetry cost.
// The channel-fallback path dispatches each phase globally, which
// over-synchronizes local boundaries but never under-synchronizes, so it
// stays correct at any GOMAXPROCS.
func (p *Pool) RunPhaseList(l *PhaseList) {
	if len(l.Phases) == 0 {
		return
	}
	p.begin("RunPhaseList")
	defer p.end()
	if obs.SamplingEnabled() {
		p.sample(l)
		return
	}
	p.run(l.Phases)
}

// RunSampled executes l once as a sampled operation whatever the sampling
// flag says and returns the sample's breakdown — the primitive behind the
// kernels' TimedMulVec.
func (p *Pool) RunSampled(l *PhaseList) PhaseTimes {
	p.begin("RunSampled")
	defer p.end()
	return p.sample(l)
}

// RunChunked partitions [0, n) into Size() nearly equal contiguous chunks and
// executes fn(tid, lo, hi) per worker. Workers whose chunk is empty still run
// with lo == hi so that fn can rely on being invoked exactly Size() times.
func (p *Pool) RunChunked(n int, fn func(tid, lo, hi int)) {
	p.Run(func(tid int) {
		lo, hi := Chunk(n, p.n, tid)
		fn(tid, lo, hi)
	})
}

// Close terminates the workers. The Pool must not be used afterwards. Close
// during an in-flight Run/RunPhases is a misuse of the single-goroutine
// ownership contract and panics. A second Close is a no-op.
func (p *Pool) Close() {
	if !p.busy.CompareAndSwap(false, true) {
		panic("parallel: Close during Run (a Pool is owned by a single goroutine)")
	}
	defer p.end()
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < p.n; i++ {
		close(p.work[i])
	}
}

// Chunk returns the half-open range [lo, hi) of the tid-th of p nearly equal
// contiguous chunks of [0, n). Earlier chunks receive the remainder elements,
// matching the row-splitting used by the reduction phase in the paper.
func Chunk(n, p, tid int) (lo, hi int) {
	if p <= 0 {
		panic(fmt.Sprintf("parallel: Chunk with %d parts", p))
	}
	q, r := n/p, n%p
	lo = tid*q + min(tid, r)
	hi = lo + q
	if tid < r {
		hi++
	}
	return lo, hi
}

// DefaultThreads returns a reasonable default worker count: GOMAXPROCS.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }
