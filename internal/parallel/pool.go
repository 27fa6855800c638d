// Package parallel provides a persistent worker pool the caller works in,
// with barrier semantics and a low-latency multi-phase dispatch path.
//
// The paper's implementation uses explicit Pthreads bound to cores and reuses
// the same threads across the 128 SpM×V iterations of the measurement
// protocol. Spawning goroutines per kernel invocation would charge the kernels
// with scheduler overhead the paper does not have, and so would putting the
// caller to sleep while P other goroutines are woken: a Pool of size P keeps
// P−1 resident workers and the calling goroutine runs tid 0 itself.
//
// The hand-off is a generation word. The caller writes the operation's
// per-dispatch fields, bumps the word, runs its own share and waits on a
// countdown the workers decrement (spin, then yield). A worker waits for the
// word to move by spinning for a bounded budget (handoffSpin: long enough to
// bridge the gaps inside a CG iteration, so consecutive operations cost a
// cache-line transfer, not a thread wake) and then parks on its own wake
// token, so an idle pool burns no CPU. On an oversubscribed pool (Size() >
// GOMAXPROCS) a waiter's processor is needed by whoever it waits for, so
// every wait skips its spin: workers park at once, barriers and the countdown
// yield at once.
//
// A multi-phase list (RunPhaseList, and RunPhases for unlabelled bodies) keeps
// the participants resident across its phases, separated by a SpinBarrier, so
// a multiply→reduce or axpy/dot/xpay chain pays one hand-off per call, not
// one per phase. Every kernel and vector operation reaches the pool as a
// PhaseList whose phases say what they are, so the dispatch is also the one
// place where operations are timed (sample.go).
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// poolHandoffs counts caller→worker dispatch cycles across all pools — the
// telemetry view of Handoffs() — and poolParks the times a worker parked,
// the event that makes the next hand-off a thread wake. An atomic add each,
// the second off the hot path.
var (
	poolHandoffs = obs.NewCounter("symspmv_pool_handoffs_total",
		"Caller-to-worker dispatch cycles issued across all pools.")
	poolParks = obs.NewCounter("symspmv_pool_parks_total",
		"Times a pool worker parked after spinning out its hand-off budget.")
)

// handoffSpin bounds the generation-word loads a worker performs before it
// parks: one constant near the knee of the sweep in DESIGN.md §7 (about 16 µs
// on the benchmark box). Shorter and workers park inside a CG iteration, so
// every hand-off is a thread wake; longer buys nothing and keeps a processor
// from a second pool that much longer.
const handoffSpin = 1 << 15

// PhaseKind says which side of the paper's split a phase's time belongs to:
// the multiply/compute work, or the reduction repairing write conflicts.
type PhaseKind uint8

const (
	PhaseCompute PhaseKind = iota
	PhaseReduction
)

// Phase is one step of an operation and says what it is: the body, and the
// span name and kind the sampler (sample.go) files its time under. A barrier
// separates it from the next phase (completion of the final one is the pool's
// countdown). The labels are set once, where the list is assembled. Fn(0)
// runs on the goroutine that called the pool, every other tid on a resident
// worker; no body may call back into the pool it runs on.
type Phase struct {
	Fn   func(tid int)
	Name obs.NameID
	Kind PhaseKind
}

// ComputePhase labels fn as compute work under the span name.
func ComputePhase(name string, fn func(tid int)) Phase {
	return Phase{Fn: fn, Name: obs.RegisterName(name)}
}

// ReductionPhase labels fn as reduction work under the span name.
func ReductionPhase(name string, fn func(tid int)) Phase {
	return Phase{Fn: fn, Name: obs.RegisterName(name), Kind: PhaseReduction}
}

// PhaseList is one operation in the form the pool runs: its labelled phases,
// assembled once over the owner's operand slots so running it allocates
// nothing, and where its samples go — every sampled run feeds Metrics, then
// Hook, on the calling goroutine after the workers are done (the hook may
// allocate but must not run anything on the pool). Either may be nil.
type PhaseList struct {
	Phases  []Phase
	Metrics *OpMetrics
	Hook    func(*Sample)
}

// PhasePanic is what every Run* method panics with when a phase body panicked
// on any participant: the first panic's value and the stack of the goroutine
// it happened on. It is raised on the calling goroutine once every
// participant has left the operation (the barriers are poisoned, so no peer
// waits for the one that died), with the pool re-armed for the next one.
type PhasePanic struct {
	Tid   int // participant the body panicked on
	Value any
	Stack []byte
}

func (e *PhasePanic) Error() string {
	return fmt.Sprintf("parallel: phase body panicked on tid %d: %v", e.Tid, e.Value)
}

// slot is one worker's wake token: it parks on cond with parked set, dispatch
// signals the workers whose flag it sees. The worker sets the flag and then
// re-reads the generation word, dispatch bumps the word and then reads the
// flag: one of the two sees the other, so a wake cannot be lost. Padded apart
// from its neighbours.
type slot struct {
	mu     sync.Mutex
	cond   sync.Cond
	parked atomic.Bool
	_      [64]byte
}

// Pool is a fixed-size set of participants: the calling goroutine as tid 0
// plus Size()−1 persistent workers. A Pool must be created with NewPool and
// released with Close.
//
// Ownership: a Pool is owned by a single coordinating goroutine. Run,
// RunChunked, RunPhases, RunPhaseList, RunSampled and Close must all be issued
// from that goroutine (or otherwise serialized by the caller); the Pool detects misuse
// — Run after Close, Close during a Run, overlapping Runs, a body re-entering
// the pool — and panics deterministically instead of racing.
type Pool struct {
	n       int
	barrier *SpinBarrier
	slots   []slot // slots[tid-1] belongs to worker tid

	closed   atomic.Bool
	busy     atomic.Bool
	handoffs atomic.Int64
	failed   atomic.Pointer[PhasePanic] // first panic of the operation in flight

	// The hand-off. cur (the phases in flight; none tells the workers to
	// leave), timed (the sampler is on) and over (oversubscribed, read once
	// per dispatch) are written before gen is bumped and read by a worker
	// only between seeing the bump and decrementing pending, which the caller
	// waits on before touching them again. Every spinning worker reads gen,
	// every finishing one writes pending: each has a cache line of its own.
	_       [64]byte
	cur     []Phase
	timed   bool
	over    bool
	_       [64]byte
	gen     atomic.Uint64
	_       [64]byte
	pending atomic.Int32
	_       [64]byte

	// bare is the reusable backing of the unlabelled lists Run and RunPhases
	// build, sampler the state of a timed run (sample.go).
	bare    []Phase
	sampler sampler
}

// NewPool creates a pool of n participants: n−1 persistent workers, none for
// n == 1. n must be positive.
func NewPool(n int) *Pool {
	if n <= 0 {
		panic(fmt.Sprintf("parallel: NewPool(%d): size must be positive", n))
	}
	p := &Pool{
		n:       n,
		barrier: NewSpinBarrier(n),
		slots:   make([]slot, n-1),
	}
	for i := range p.slots {
		p.slots[i].cond.L = &p.slots[i].mu
		go p.worker(i + 1)
	}
	return p
}

// worker is the resident loop of participant tid ≥ 1: wait for the generation
// word to move, run the published phases, count down. It parks at once while
// the pool has never run or is oversubscribed.
func (p *Pool) worker(tid int) {
	w := &p.slots[tid-1]
	var seen uint64
	spin := 0
	for {
		seen = p.await(w, seen, spin)
		if p.cur == nil {
			p.pending.Add(-1)
			return
		}
		spin = spins(handoffSpin, p.over)
		p.participate(tid)
		p.pending.Add(-1)
	}
}

// await returns the generation word once it has moved past seen: after at
// most spin loads of it the worker parks on its wake token.
func (p *Pool) await(w *slot, seen uint64, spin int) uint64 {
	for i := 0; i < spin; i++ {
		if g := p.gen.Load(); g != seen {
			return g
		}
	}
	w.mu.Lock()
	w.parked.Store(true)
	poolParks.Inc()
	for p.gen.Load() == seen {
		w.cond.Wait()
	}
	w.parked.Store(false)
	w.mu.Unlock()
	return p.gen.Load()
}

// participate runs the phases in flight as participant tid, separated by the
// barrier. A poisoned barrier means a peer's body panicked, and ends this
// participant's share.
func (p *Pool) participate(tid int) {
	defer p.contain(tid)
	budget := spins(spinBudget, p.over)
	last := len(p.cur) - 1
	for i := range p.cur {
		ph := &p.cur[i]
		if p.timed {
			p.sampler.timed(ph, i*p.n+tid, tid)
		} else {
			ph.Fn(tid)
		}
		if i == last {
			break
		}
		if !p.barrier.wait(budget) {
			return
		}
	}
}

// contain, deferred by every participant, turns a panicking body into the
// operation's PhasePanic (the first one wins) and poisons the barrier so no
// peer waits for the participant that will not arrive.
func (p *Pool) contain(tid int) {
	v := recover()
	if v == nil {
		return
	}
	p.failed.CompareAndSwap(nil, &PhasePanic{Tid: tid, Value: v, Stack: debug.Stack()})
	p.barrier.poison()
}

// Size reports the number of participants.
func (p *Pool) Size() int { return p.n }

// Handoffs reports the number of caller→worker dispatch cycles issued so far:
// one per Run and one per phase list, however many phases it has. Tests use
// it to assert phase fusion actually collapsed the barrier chain.
func (p *Pool) Handoffs() int64 { return p.handoffs.Load() }

// ResetHandoffs zeroes the dispatch counter.
func (p *Pool) ResetHandoffs() { p.handoffs.Store(0) }

// begin guards an operation — it panics deterministically on misuse — and
// counts its hand-off.
func (p *Pool) begin(op string) {
	if p.closed.Load() {
		panic("parallel: " + op + " on closed Pool")
	}
	if !p.busy.CompareAndSwap(false, true) {
		panic("parallel: concurrent " + op + " on Pool (a Pool is owned by a single goroutine)")
	}
	p.handoffs.Add(1)
	poolHandoffs.Inc()
}

func (p *Pool) end() { p.busy.Store(false) }

// dispatch runs the list on every participant — one hand-off — and returns
// when all of them are done: publish it by bumping the generation word, wake
// whoever is parked, take tid 0's share, then wait out the countdown (spin,
// then yield). If a body panicked it re-arms the barrier and panics with the
// operation's *PhasePanic instead.
func (p *Pool) dispatch(phases []Phase) {
	p.cur = phases
	if p.n > 1 {
		p.over = p.n > runtime.GOMAXPROCS(0)
		p.pending.Store(int32(p.n - 1))
		p.gen.Add(1)
		for i := range p.slots {
			if w := &p.slots[i]; w.parked.Load() {
				w.mu.Lock()
				w.cond.Signal()
				w.mu.Unlock()
			}
		}
	}
	p.participate(0)
	for i, budget := 0, spins(spinBudget, p.over); p.pending.Load() != 0; i++ {
		if i >= budget {
			runtime.Gosched()
		}
	}
	p.cur, p.timed = nil, false
	if pp := p.failed.Load(); pp != nil {
		p.failed.Store(nil)
		p.barrier.rearm()
		panic(pp)
	}
}

// runBare dispatches unlabelled bodies as a list built in the reused backing.
func (p *Pool) runBare(op string, fns []func(tid int)) {
	p.begin(op)
	defer p.end()
	p.bare = p.bare[:0]
	for _, fn := range fns {
		p.bare = append(p.bare, Phase{Fn: fn})
	}
	p.dispatch(p.bare)
	clear(p.bare)
}

// Run executes fn(tid) on every participant, tid in [0, Size()) with tid 0 on
// the calling goroutine, and returns when all of them have finished (a
// barrier).
func (p *Pool) Run(fn func(tid int)) {
	p.runBare("Run", []func(tid int){fn})
}

// RunPhases executes the given unlabelled phases in order on every
// participant: within a phase all run concurrently, and none starts phase i+1
// before every one has finished phase i. The whole chain costs a single
// hand-off, with only a spin-barrier round between phases. Having no labels,
// the chain is never sampled.
func (p *Pool) RunPhases(phases ...func(tid int)) {
	if len(phases) > 0 {
		p.runBare("RunPhases", phases)
	}
}

// RunPhaseList executes a labelled operation: RunPhases and, while
// obs.SamplingEnabled(), timed (sample.go); unsampled, that one atomic load is
// its whole telemetry cost.
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
	p.dispatch(l.Phases)
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
// executes fn(tid, lo, hi) per participant. Those whose chunk is empty still
// run with lo == hi so that fn can rely on being invoked exactly Size() times.
func (p *Pool) RunChunked(n int, fn func(tid, lo, hi int)) {
	p.Run(func(tid int) {
		lo, hi := Chunk(n, p.n, tid)
		fn(tid, lo, hi)
	})
}

// Close ends the workers, parked and spinning alike, and returns once each
// has taken its leave. The Pool must not be used afterwards. Close during an
// in-flight Run/RunPhases is a misuse of the single-goroutine ownership
// contract and panics. A second Close is a no-op.
func (p *Pool) Close() {
	if !p.busy.CompareAndSwap(false, true) {
		panic("parallel: Close during Run (a Pool is owned by a single goroutine)")
	}
	defer p.end()
	if p.closed.CompareAndSwap(false, true) {
		p.dispatch(nil) // no phases: the workers leave
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
