package serve

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	symspmv "repro"
	"repro/internal/obs"
	"repro/internal/parallel"
)

type opKind int

const (
	opSpMV opKind = iota
	opSolve
)

func (o opKind) String() string {
	if o == opSpMV {
		return "spmv"
	}
	return "solve"
}

// batchKey is the compatibility class for coalescing: only requests that
// would run the same computation per lane may share a dispatch. SpMV
// requests all share one key; solves must agree on tolerance and iteration
// cap because block CG shares the iteration loop across lanes.
type batchKey struct {
	op      opKind
	tol     float64
	maxIter int
}

// outcome is the per-request result delivered on request.done.
type outcome struct {
	y          []float64 // spmv product, or solve iterate
	iterations int
	converged  bool
	residual   float64
	lanes      int // real lanes in the dispatch that served this request
	err        error
	stages     stageTimes // filled by finish
}

// request is one admitted caller waiting for a lane.
type request struct {
	key  batchKey
	in   []float64       // x for spmv, b for solve; length n
	ctx  context.Context // per-request deadline/cancellation; never nil
	done chan outcome    // buffered 1; the dispatcher is the only sender

	// Request-scoped observability (reqtrace.go): id is the caller-visible
	// request id (inbound traceparent trace-id or generated; empty on
	// hand-built internal requests), seq the process-unique sequence number
	// threading the trace spans, matrix the registry id. The three timestamps
	// mark the ownership handoffs the latency decomposition hinges on.
	id     string
	seq    uint64
	matrix string
	enqNs  int64 // stamped by Enqueue
	pickNs int64 // stamped when the dispatcher adds the request to a batch
	dispNs int64 // stamped when the batch's kernel operation starts

	finished bool // dispatcher-owned: the outcome has been sent
}

// newRequest builds an externally-visible request with its observability
// identity attached.
func newRequest(id, matrix string, key batchKey, in []float64, ctx context.Context) *request {
	return &request{
		key: key, in: in, ctx: ctx, done: make(chan outcome, 1),
		id: id, seq: nextSeq(), matrix: matrix,
	}
}

// finish hands the outcome to the waiting caller. A result JSON cannot carry
// becomes ErrNonFinite here, so the metrics, the log line and the response
// agree on it and no header is out when it is found.
func (r *request) finish(out outcome) {
	r.finished = true
	if out.err == nil && !(allFinite(out.y) && isFinite(out.residual)) {
		out = outcome{lanes: out.lanes, err: ErrNonFinite}
	}
	recordOutcome(r.key.op, out.err)
	out.stages = observeRequest(r, obs.Now())
	r.done <- out
}

// isFinite: f-f is NaN for a NaN or an infinity, zero otherwise.
func isFinite(f float64) bool { return f-f == 0 }

func allFinite(v []float64) bool {
	for _, f := range v {
		if !isFinite(f) {
			return false
		}
	}
	return true
}

// Batcher owns one matrix's request stream. A single dispatcher goroutine
// pops requests from a bounded queue, opportunistically gathers compatible
// requests that arrived while the previous dispatch ran (plus a short
// coalescing window once a second request shows up), and issues ONE kernel
// operation — MulMat or SolveCGBlock at nv ∈ {2,4,8} — whose lanes are then
// demultiplexed back to the waiting callers. A request that arrives alone is
// dispatched immediately through the scalar path, so solo traffic pays no
// window latency.
type Batcher struct {
	kern     symspmv.Kernel
	n        int
	window   time.Duration
	maxBatch int
	spmm     bool // kernel supports MulMat (probed once at load)

	in chan *request

	// The interleaved operand and result blocks of a multi-lane dispatch.
	// Only the dispatcher goroutine touches them, and each grows once to the
	// widest batch seen, so a batch allocates nothing but its callers' results.
	blockIn, blockOut []float64

	mu      sync.RWMutex
	stopped bool

	stop chan struct{}
	done chan struct{}
}

// maxLanes caps a batch at the widest register-blocked SpMM fast path.
const maxLanes = 8

func newBatcher(kern symspmv.Kernel, n, queue, maxBatch int, window time.Duration) *Batcher {
	if queue < 1 {
		queue = 1
	}
	if maxBatch < 1 || maxBatch > maxLanes {
		maxBatch = maxLanes
	}
	b := &Batcher{
		kern:     kern,
		n:        n,
		window:   window,
		maxBatch: maxBatch,
		spmm:     symspmv.SupportsMulMat(kern),
		in:       make(chan *request, queue),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.run()
	return b
}

// Enqueue admits a request or rejects it with ErrQueueFull / ErrUnloaded.
// It never blocks: backpressure is the caller's signal to retry later.
func (b *Batcher) Enqueue(r *request) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.stopped {
		return ErrUnloaded
	}
	r.enqNs = obs.Now()
	select {
	case b.in <- r:
		queueDepth.Observe(float64(len(b.in)))
		return nil
	default:
		rejectedQueueFull.Inc()
		return ErrQueueFull
	}
}

// Stop shuts the dispatcher down and fails queued requests with ErrUnloaded.
// It returns only after the dispatcher has exited, so the caller may close
// the kernel immediately afterwards.
func (b *Batcher) Stop() {
	b.mu.Lock()
	already := b.stopped
	b.stopped = true
	b.mu.Unlock()
	if !already {
		close(b.stop)
	}
	<-b.done
}

func (b *Batcher) run() {
	defer close(b.done)
	// pending holds compatible-key overflow and requests whose key did not
	// match the batch under construction; they lead the next round.
	var pending []*request
	for {
		var first *request
		if len(pending) > 0 {
			first = pending[0]
			pending = pending[1:]
		} else {
			select {
			case r := <-b.in:
				first = r
			case <-b.stop:
				b.failQueued(pending)
				return
			}
		}
		first.pickNs = obs.Now()
		if first.ctx.Err() != nil {
			first.finish(outcome{err: fmt.Errorf("serve: before dispatch: %w", first.ctx.Err())})
			continue
		}
		batch := []*request{first}
		pending = b.gather(&batch, pending)
		// A companion arrived while we were idle: hold the window open for
		// more, up to the fast-path cap. Solo requests skip this entirely.
		if b.spmm && len(batch) > 1 && b.window > 0 && len(batch) < b.maxBatch {
			timer := time.NewTimer(b.window)
		collect:
			for len(batch) < b.maxBatch {
				select {
				case r := <-b.in:
					b.admitOrHold(r, &batch, &pending)
				case <-timer.C:
					break collect
				case <-b.stop:
					break collect
				}
			}
			timer.Stop()
		}
		b.dispatch(batch)
	}
}

// gather drains everything already queued without blocking, splitting
// requests into the current batch (matching key, room left) or pending.
func (b *Batcher) gather(batch *[]*request, pending []*request) []*request {
	// Re-examine earlier overflow first so it cannot starve behind new
	// arrivals.
	rest := pending[:0]
	for _, r := range pending {
		b.admitOrHold(r, batch, &rest)
	}
	for {
		select {
		case r := <-b.in:
			b.admitOrHold(r, batch, &rest)
		default:
			return rest
		}
	}
}

func (b *Batcher) admitOrHold(r *request, batch *[]*request, pending *[]*request) {
	if r.ctx.Err() != nil {
		r.finish(outcome{err: fmt.Errorf("serve: before dispatch: %w", r.ctx.Err())})
		return
	}
	if b.spmm && len(*batch) < b.maxBatch && r.key == (*batch)[0].key {
		r.pickNs = obs.Now()
		*batch = append(*batch, r)
		return
	}
	*pending = append(*pending, r)
}

func (b *Batcher) failQueued(pending []*request) {
	for _, r := range pending {
		r.finish(outcome{err: ErrUnloaded})
	}
	for {
		select {
		case r := <-b.in:
			r.finish(outcome{err: ErrUnloaded})
		default:
			return
		}
	}
}

// padWidth rounds a lane count up to a register-blocked SpMM width.
func padWidth(lanes int) int {
	switch {
	case lanes <= 2:
		return 2
	case lanes <= 4:
		return 4
	default:
		return 8
	}
}

// dispatch runs one kernel operation for the batch and demultiplexes the
// result lanes. Batches of one (or kernels without SpMM) take the scalar
// path; a failed batched solve falls back to per-request scalar solves so no
// caller inherits another lane's breakdown. A panic out of the kernel — a
// *parallel.PhasePanic from its pool, or anything else — is contained here:
// the batch's unanswered callers get ErrKernelPanic and the dispatcher goes
// on to the next batch.
func (b *Batcher) dispatch(batch []*request) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		stack := debug.Stack()
		if pp, ok := v.(*parallel.PhasePanic); ok {
			stack = pp.Stack // the goroutine the body ran on, not this one
		}
		logger().Error("serve: kernel panicked", "panic", fmt.Sprint(v), "stack", string(stack))
		for _, r := range batch {
			if !r.finished {
				r.finish(outcome{err: fmt.Errorf("%w: %v", ErrKernelPanic, v)})
			}
		}
	}()
	recordDispatch(len(batch))
	dispNs := obs.Now()
	for _, r := range batch {
		r.dispNs = dispNs
	}
	if len(batch) == 1 || !b.spmm {
		for _, r := range batch {
			b.scalar(r, 1)
		}
		return
	}
	nv := padWidth(len(batch))
	key := batch[0].key
	if len(b.blockIn) < b.n*nv {
		b.blockIn, b.blockOut = make([]float64, b.n*nv), make([]float64, b.n*nv)
	}
	in, out := b.blockIn[:b.n*nv], b.blockOut[:b.n*nv]
	// Padding lanes are zeroed on every batch — the block held another batch's
	// operands, at this width or another: MulMat lanes are independent, and a
	// zero-b block-CG lane has rr = 0 <= tol² so it freezes before iteration 1.
	for i := 0; i < b.n; i++ {
		row := in[i*nv : (i+1)*nv]
		for v, r := range batch {
			row[v] = r.in[i]
		}
		for v := len(batch); v < nv; v++ {
			row[v] = 0
		}
	}

	switch key.op {
	case opSpMV:
		if err := symspmv.MulMat(b.kern, in, out, nv); err != nil {
			for _, r := range batch {
				b.scalar(r, 1)
			}
			return
		}
		for v, r := range batch {
			y := make([]float64, b.n)
			for i := 0; i < b.n; i++ {
				y[i] = out[i*nv+v]
			}
			r.finish(outcome{y: y, lanes: len(batch)})
		}
	case opSolve:
		clear(out) // block CG starts from x₀ = out
		res, err := symspmv.SolveCGBlock(b.kern, in, out, nv, symspmv.CGOptions{
			Tol:     key.tol,
			MaxIter: key.maxIter,
			Context: batchContext(batch),
		})
		if err != nil {
			// One lane's breakdown (or a shared cancellation) must not decide
			// every caller's fate: redo each request alone under its own
			// context. The scalar path reports per-request errors precisely.
			for _, r := range batch {
				b.scalar(r, len(batch))
			}
			return
		}
		for v, r := range batch {
			x := make([]float64, b.n)
			for i := 0; i < b.n; i++ {
				x[i] = out[i*nv+v]
			}
			r.finish(outcome{
				y:          x,
				iterations: res.Iterations,
				converged:  res.Converged[v],
				residual:   res.Residuals[v],
				lanes:      len(batch),
			})
		}
	}
}

// scalar serves one request through the single-vector paths.
func (b *Batcher) scalar(r *request, lanes int) {
	if r.ctx.Err() != nil {
		r.finish(outcome{err: fmt.Errorf("serve: before dispatch: %w", r.ctx.Err())})
		return
	}
	switch r.key.op {
	case opSpMV:
		y := make([]float64, b.n)
		b.kern.MulVec(r.in, y)
		r.finish(outcome{y: y, lanes: lanes})
	case opSolve:
		x := make([]float64, b.n)
		res, err := symspmv.SolveCG(b.kern, r.in, x, symspmv.CGOptions{
			Tol:     r.key.tol,
			MaxIter: r.key.maxIter,
			Context: r.ctx,
		})
		if err != nil {
			r.finish(outcome{err: err})
			return
		}
		r.finish(outcome{
			y:          x,
			iterations: res.Iterations,
			converged:  res.Converged,
			residual:   res.Residual,
			lanes:      lanes,
		})
	}
}

// batchContext picks the context a shared solve runs under. With one waiter
// the request context is authoritative; with several, the solve runs until
// every waiter has given up — mergedContext cancels only when all lane
// contexts are done, so one impatient caller cannot abort its batchmates.
func batchContext(batch []*request) context.Context {
	if len(batch) == 1 {
		return batch[0].ctx
	}
	return mergedContext(batch)
}

// mergedContext returns a context that is cancelled when EVERY request
// context in the batch is done. Its watcher goroutine exits as soon as that
// happens, or immediately if any context can never fire (Done() == nil).
func mergedContext(batch []*request) context.Context {
	for _, r := range batch {
		if r.ctx.Done() == nil {
			return context.Background()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for _, r := range batch {
			<-r.ctx.Done()
		}
		cancel()
	}()
	return ctx
}
