package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	symspmv "repro"
	"repro/internal/parallel"
)

// testMatrixFile writes a strongly diagonally dominant SPD matrix (small
// condition number, so CG converges in a handful of iterations) to a temp
// Matrix Market file and returns its path plus the in-memory matrix.
func testMatrixFile(t *testing.T, n int, seed int64) (string, *symspmv.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := symspmv.NewBuilder(n)
	for i := 0; i < n; i++ {
		deg := 0.0
		for e := 0; e < 4; e++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			b.Set(i, j, v)
			deg += math.Abs(v)
		}
		b.Set(i, i, 2*deg+4)
	}
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return writeMatrixFile(t, a), a
}

// writeMatrixFile writes a to a temp Matrix Market file and returns its path.
func writeMatrixFile(tb testing.TB, a *symspmv.Matrix) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "m.mtx")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := a.WriteMatrixMarket(f); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

func testRegistry(t *testing.T, opts Options) *Registry {
	t.Helper()
	if opts.TuneCacheDir == "" {
		opts.TuneCacheDir = "off"
	}
	reg := NewRegistry(opts)
	t.Cleanup(reg.Close)
	return reg
}

func loadEntry(t *testing.T, reg *Registry, id string, n int, seed int64) *Entry {
	t.Helper()
	path, _ := testMatrixFile(t, n, seed)
	e, err := reg.Load(id, LoadSpec{Path: path, Format: "sss-idx", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !e.SpMM {
		t.Fatalf("sss-idx entry reports no SpMM support")
	}
	return e
}

func solveReq(b []float64, ctx context.Context, tol float64) *request {
	if ctx == nil {
		ctx = context.Background()
	}
	return &request{key: batchKey{op: opSolve, tol: tol}, in: b, ctx: ctx, done: make(chan outcome, 1)}
}

func spmvReq(x []float64, ctx context.Context) *request {
	if ctx == nil {
		ctx = context.Background()
	}
	return &request{key: batchKey{op: opSpMV}, in: x, ctx: ctx, done: make(chan outcome, 1)}
}

// Admission is deterministic on a hand-built batcher whose dispatcher never
// runs: the queue fills to capacity, then rejects; a stopped batcher rejects
// with ErrUnloaded.
func TestEnqueueBackpressure(t *testing.T) {
	b := &Batcher{in: make(chan *request, 2), stop: make(chan struct{}), done: make(chan struct{})}
	x := make([]float64, 4)
	if err := b.Enqueue(spmvReq(x, nil)); err != nil {
		t.Fatal(err)
	}
	if err := b.Enqueue(spmvReq(x, nil)); err != nil {
		t.Fatal(err)
	}
	if err := b.Enqueue(spmvReq(x, nil)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: err = %v, want ErrQueueFull", err)
	}
	b.stopped = true
	if err := b.Enqueue(spmvReq(x, nil)); !errors.Is(err, ErrUnloaded) {
		t.Fatalf("stopped batcher: err = %v, want ErrUnloaded", err)
	}
}

func TestPadWidth(t *testing.T) {
	for lanes, want := range map[int]int{1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8} {
		if got := padWidth(lanes); got != want {
			t.Errorf("padWidth(%d) = %d, want %d", lanes, got, want)
		}
	}
}

// A lone request takes the scalar path (lanes == 1) and is bitwise the
// kernel's MulVec.
func TestSoloRequestScalarPath(t *testing.T) {
	reg := testRegistry(t, Options{Window: 50 * time.Millisecond, QueueDepth: 8})
	e := loadEntry(t, reg, "solo", 200, 1)

	x := make([]float64, e.N)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	ref := make([]float64, e.N)
	e.kern.MulVec(x, ref)

	r := spmvReq(x, nil)
	if err := e.batcher.Enqueue(r); err != nil {
		t.Fatal(err)
	}
	out := <-r.done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.lanes != 1 {
		t.Fatalf("solo request served with lanes = %d", out.lanes)
	}
	for i := range ref {
		if out.y[i] != ref[i] {
			t.Fatalf("y[%d] = %g, want %g", i, out.y[i], ref[i])
		}
	}
}

// dispatcherPlug is a request whose context holds the entry's dispatcher: the
// dispatcher's pre-dispatch ctx.Err() check blocks until the test releases
// it, so requests enqueued meanwhile pile up behind the plug and must
// coalesce — however fast the plug's own product is.
type dispatcherPlug struct {
	context.Context
	held                  chan struct{} // closed once the dispatcher is blocked on the plug
	release               chan struct{}
	holdOnce, releaseOnce sync.Once
	done                  chan outcome
}

func (p *dispatcherPlug) Err() error {
	p.holdOnce.Do(func() { close(p.held) })
	<-p.release
	return nil
}

// plugDispatcher enqueues a plug and returns once the dispatcher is holding
// it. The caller lets it go with releaseWhen and drains done at the end.
func plugDispatcher(t *testing.T, e *Entry) *dispatcherPlug {
	t.Helper()
	p := &dispatcherPlug{
		Context: context.Background(),
		held:    make(chan struct{}), release: make(chan struct{}),
		done: make(chan outcome, 1),
	}
	t.Cleanup(p.open) // a failed test must not leave the dispatcher blocked under Registry.Close
	req := &request{key: batchKey{op: opSpMV}, in: make([]float64, e.N), ctx: p, done: p.done}
	if err := e.batcher.Enqueue(req); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.held:
	case <-time.After(10 * time.Second):
		t.Fatal("dispatcher never picked up the plug")
	}
	return p
}

func (p *dispatcherPlug) open() { p.releaseOnce.Do(func() { close(p.release) }) }

// releaseWhen lets the dispatcher go as soon as queued() holds — typically
// "every request of the test sits in the batcher's queue".
func (p *dispatcherPlug) releaseWhen(t *testing.T, queued func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !queued() {
		if time.Now().After(deadline) {
			t.Fatal("requests never queued up behind the plug")
		}
		time.Sleep(time.Millisecond)
	}
	p.open()
}

// Concurrent same-key spmv requests coalesce into multi-lane dispatches, and
// every lane is bitwise identical to the kernel's MulVec (the documented
// SpMM contract). A plug request occupies the dispatcher while the batch
// queues up, so coalescing is deterministic.
func TestSpMVCoalesces(t *testing.T) {
	reg := testRegistry(t, Options{Window: 100 * time.Millisecond, QueueDepth: 64})
	e := loadEntry(t, reg, "coalesce", 300, 2)

	const reqs = 8
	xs := make([][]float64, reqs)
	refs := make([][]float64, reqs)
	for r := 0; r < reqs; r++ {
		xs[r] = make([]float64, e.N)
		for i := range xs[r] {
			xs[r][i] = math.Sin(float64(i*(r+1))) * 2
		}
		refs[r] = make([]float64, e.N)
		e.kern.MulVec(xs[r], refs[r])
	}

	plug := plugDispatcher(t, e)
	outs := make([]outcome, reqs)
	var wg sync.WaitGroup
	for r := 0; r < reqs; r++ {
		req := spmvReq(xs[r], nil)
		if err := e.batcher.Enqueue(req); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, req *request) {
			defer wg.Done()
			outs[r] = <-req.done
		}(r, req)
	}
	plug.releaseWhen(t, func() bool { return len(e.batcher.in) == reqs })
	wg.Wait()
	<-plug.done

	batched := 0
	for r := 0; r < reqs; r++ {
		if outs[r].err != nil {
			t.Fatalf("request %d: %v", r, outs[r].err)
		}
		if outs[r].lanes >= 2 {
			batched++
		}
		for i := range refs[r] {
			if outs[r].y[i] != refs[r][i] {
				t.Fatalf("request %d lane result differs from MulVec at row %d: %g vs %g (lanes=%d)",
					r, i, outs[r].y[i], refs[r][i], outs[r].lanes)
			}
		}
	}
	if batched == 0 {
		t.Fatalf("no request was served in a multi-lane dispatch (queue was pre-filled with %d requests)", reqs)
	}
}

// Batched solves: lanes demux to the right caller and each converges to its
// own solution.
func TestSolveCoalescesAndDemuxes(t *testing.T) {
	reg := testRegistry(t, Options{Window: 100 * time.Millisecond, QueueDepth: 64})
	e := loadEntry(t, reg, "bsolve", 300, 3)

	const reqs = 5
	xstars := make([][]float64, reqs)
	bs := make([][]float64, reqs)
	rng := rand.New(rand.NewSource(9))
	for r := 0; r < reqs; r++ {
		xstars[r] = make([]float64, e.N)
		for i := range xstars[r] {
			xstars[r][i] = rng.NormFloat64()
		}
		bs[r] = make([]float64, e.N)
		e.kern.MulVec(xstars[r], bs[r])
	}

	plug := plugDispatcher(t, e)
	outs := make([]outcome, reqs)
	var wg sync.WaitGroup
	for r := 0; r < reqs; r++ {
		req := solveReq(bs[r], nil, 1e-12)
		if err := e.batcher.Enqueue(req); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, req *request) {
			defer wg.Done()
			outs[r] = <-req.done
		}(r, req)
	}
	plug.releaseWhen(t, func() bool { return len(e.batcher.in) == reqs })
	wg.Wait()
	<-plug.done

	batched := 0
	for r := 0; r < reqs; r++ {
		if outs[r].lanes >= 2 {
			batched++
		}
	}
	if batched == 0 {
		t.Fatalf("no solve was served in a multi-lane dispatch")
	}
	for r := 0; r < reqs; r++ {
		out := outs[r]
		if out.err != nil {
			t.Fatalf("request %d: %v", r, out.err)
		}
		if !out.converged {
			t.Fatalf("request %d did not converge: residual %g after %d iterations", r, out.residual, out.iterations)
		}
		for i := range xstars[r] {
			if d := math.Abs(out.y[i] - xstars[r][i]); d > 1e-8*(1+math.Abs(xstars[r][i])) {
				t.Fatalf("request %d: x[%d] = %g, want %g (lanes=%d)", r, i, out.y[i], xstars[r][i], out.lanes)
			}
		}
	}
}

// The batcher race-stress test: N goroutines against M matrices, mixed
// spmv/solve with random cancellations and a concurrent unload. Every
// request must end in exactly one of: a correct result (spmv bitwise vs the
// kernel, solve within tolerance of the known solution) or a typed error
// (context cancellation, queue full, unloaded). Run under -race this is the
// dispatcher's data-race proof.
func TestBatcherStress(t *testing.T) {
	const (
		nMat    = 3
		workers = 12
		ops     = 10
		n       = 150
	)
	reg := testRegistry(t, Options{Window: time.Millisecond, QueueDepth: 64})

	type target struct {
		e     *Entry
		xin   []float64
		ref   []float64 // kernel MulVec(xin)
		xstar []float64
		b     []float64 // kernel-consistent b = A·xstar
	}
	targets := make([]*target, nMat)
	ids := []string{"s0", "s1", "s2"}
	for m := 0; m < nMat; m++ {
		e := loadEntry(t, reg, ids[m], n, int64(100+m))
		tg := &target{e: e, xin: make([]float64, n), ref: make([]float64, n),
			xstar: make([]float64, n), b: make([]float64, n)}
		rng := rand.New(rand.NewSource(int64(m)))
		for i := 0; i < n; i++ {
			tg.xin[i] = rng.NormFloat64()
			tg.xstar[i] = rng.NormFloat64()
		}
		e.kern.MulVec(tg.xin, tg.ref)
		e.kern.MulVec(tg.xstar, tg.b)
		targets[m] = tg
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for op := 0; op < ops; op++ {
				tg := targets[rng.Intn(nMat)]
				ctx := context.Background()
				cancelled := false
				switch rng.Intn(4) {
				case 0: // pre-cancelled
					c, cancel := context.WithCancel(ctx)
					cancel()
					ctx, cancelled = c, true
				case 1: // racing deadline: either outcome is legal
					c, cancel := context.WithTimeout(ctx, time.Duration(rng.Intn(3))*time.Millisecond)
					defer cancel()
					ctx = c
				}
				var req *request
				isSolve := rng.Intn(2) == 0
				if isSolve {
					req = solveReq(tg.b, ctx, 1e-10)
				} else {
					req = spmvReq(tg.xin, ctx)
				}
				if err := tg.e.batcher.Enqueue(req); err != nil {
					if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrUnloaded) {
						t.Errorf("worker %d: enqueue: %v", w, err)
					}
					continue
				}
				out := <-req.done
				if out.err != nil {
					if errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) ||
						errors.Is(out.err, ErrUnloaded) {
						continue
					}
					t.Errorf("worker %d: untyped error: %v", w, out.err)
					continue
				}
				if cancelled {
					// A pre-cancelled request may still win the race only if
					// the dispatcher read it before the cancellation check;
					// our cancel() ran before Enqueue, so it must not.
					t.Errorf("worker %d: pre-cancelled request returned a result", w)
					continue
				}
				if isSolve {
					if !out.converged {
						t.Errorf("worker %d: solve did not converge (res %g)", w, out.residual)
						continue
					}
					for i := range tg.xstar {
						if d := math.Abs(out.y[i] - tg.xstar[i]); d > 1e-6*(1+math.Abs(tg.xstar[i])) {
							t.Errorf("worker %d: solve x[%d] = %g, want %g", w, i, out.y[i], tg.xstar[i])
							break
						}
					}
				} else {
					for i := range tg.ref {
						if out.y[i] != tg.ref[i] {
							t.Errorf("worker %d: spmv y[%d] = %g, want %g (lanes=%d)", w, i, out.y[i], tg.ref[i], out.lanes)
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// Unloading with requests still queued fails them with ErrUnloaded and makes
// later enqueues fail too; the id then 404s in the registry.
func TestUnloadFailsPending(t *testing.T) {
	reg := testRegistry(t, Options{Window: 10 * time.Millisecond, QueueDepth: 32})
	e := loadEntry(t, reg, "gone", 200, 7)

	x := make([]float64, e.N)
	reqs := make([]*request, 6)
	for i := range reqs {
		reqs[i] = solveReq(x, nil, 1e-10)
		if err := e.batcher.Enqueue(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Unload("gone"); err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		out := <-r.done
		// Requests dispatched before Stop land a zero-b result (x = 0 is
		// the exact solution); the rest fail with ErrUnloaded.
		if out.err != nil && !errors.Is(out.err, ErrUnloaded) {
			t.Fatalf("queued request: err = %v, want nil or ErrUnloaded", out.err)
		}
	}
	if err := e.batcher.Enqueue(solveReq(x, nil, 1e-10)); !errors.Is(err, ErrUnloaded) {
		t.Fatalf("enqueue after unload: err = %v, want ErrUnloaded", err)
	}
	if _, err := reg.Get("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after unload: err = %v, want ErrNotFound", err)
	}
	if err := reg.Unload("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double unload: err = %v, want ErrNotFound", err)
	}
}

// Solves with different tolerances never share a dispatch (the batch key
// separates them), but both still complete correctly.
func TestMixedKeysDoNotCoalesce(t *testing.T) {
	reg := testRegistry(t, Options{Window: 20 * time.Millisecond, QueueDepth: 32})
	e := loadEntry(t, reg, "keys", 200, 11)

	xstar := make([]float64, e.N)
	for i := range xstar {
		xstar[i] = 1
	}
	b := make([]float64, e.N)
	e.kern.MulVec(xstar, b)

	r1 := solveReq(b, nil, 1e-8)
	r2 := solveReq(b, nil, 1e-12)
	if err := e.batcher.Enqueue(r1); err != nil {
		t.Fatal(err)
	}
	if err := e.batcher.Enqueue(r2); err != nil {
		t.Fatal(err)
	}
	o1, o2 := <-r1.done, <-r2.done
	if o1.err != nil || o2.err != nil {
		t.Fatalf("errs: %v, %v", o1.err, o2.err)
	}
	if !o1.converged || !o2.converged {
		t.Fatalf("converged: %v, %v", o1.converged, o2.converged)
	}
	// The looser solve may not iterate as far; both must still be accurate
	// to their own tolerance against the exact solution.
	for i := range xstar {
		if d := math.Abs(o2.y[i] - 1); d > 1e-8 {
			t.Fatalf("tight solve x[%d] off by %g", i, d)
		}
		if d := math.Abs(o1.y[i] - 1); d > 1e-4 {
			t.Fatalf("loose solve x[%d] off by %g", i, d)
		}
	}
}

// The name the list endpoint reports for a pinned format is a name the load
// endpoint accepts: every format's String() posts back, and an unknown name's
// error lists what would have been accepted.
func TestLoadAcceptsReportedFormatName(t *testing.T) {
	reg := testRegistry(t, Options{})
	path, _ := testMatrixFile(t, 60, 5)
	for i, f := range symspmv.Formats() {
		first, err := reg.Load(fmt.Sprintf("a%d", i), LoadSpec{Path: path, Format: f.String(), Threads: 2})
		if err != nil {
			t.Fatalf("Load(Format: %q): %v", f.String(), err)
		}
		if first.Format != f.String() {
			t.Fatalf("entry reports format %q for %v", first.Format, f)
		}
	}
	// A typo and the names of the rows that left the table are the same 400.
	for _, name := range []string{"sss-indexd", "bcsr", "csb", "csb-sym", "sss-atomic"} {
		_, err := reg.Load("typo", LoadSpec{Path: path, Format: name})
		if !IsBadRequest(err) || !strings.Contains(err.Error(), "sss-idx") {
			t.Fatalf("format %q: err = %v, want a bad request listing the valid names", name, err)
		}
	}
}

// panicOnceKernel panics inside a pool phase on its first MulVec — what a
// kernel bug looks like from outside — and is the wrapped kernel afterwards.
type panicOnceKernel struct {
	symspmv.Kernel
	pool  *parallel.Pool
	armed atomic.Bool
}

func (k *panicOnceKernel) MulVec(x, y []float64) {
	k.pool.Run(func(tid int) {
		if tid == 1 && k.armed.CompareAndSwap(true, false) {
			panic("kernel bug")
		}
	})
	k.Kernel.MulVec(x, y)
}

// A kernel panic is contained by the dispatcher: the callers of the batch it
// hit get ErrKernelPanic (HTTP 500, kernel_panic), every other concurrent
// caller a correct product from the same batcher, and nothing leaks or hangs.
func TestKernelPanicIsContained(t *testing.T) {
	var logs bytes.Buffer
	SetLogger(slog.New(slog.NewTextHandler(&logs, nil)))
	defer SetLogger(nil)
	base := runtime.NumGoroutine()
	_, a := testMatrixFile(t, 120, 9)
	inner, err := a.Kernel(symspmv.SSSIndexed, symspmv.Threads(2))
	if err != nil {
		t.Fatal(err)
	}
	k := &panicOnceKernel{Kernel: inner, pool: parallel.NewPool(2)}
	k.armed.Store(true)
	b := newBatcher(k, a.N(), 64, 8, time.Millisecond)

	x := make([]float64, a.N())
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	want := make([]float64, a.N())
	inner.MulVec(x, want)

	const callers = 16
	var wg sync.WaitGroup
	var panicked, served atomic.Int32
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := spmvReq(x, nil)
			if err := b.Enqueue(r); err != nil {
				t.Error(err)
				return
			}
			select {
			case out := <-r.done:
				switch status, code := StatusFor(out.err); {
				case out.err == nil && slices.Equal(out.y, want):
					served.Add(1)
				case errors.Is(out.err, ErrKernelPanic) && status == 500 && code == "kernel_panic" && strings.Contains(out.err.Error(), "kernel bug"):
					panicked.Add(1)
				default:
					t.Errorf("outcome err=%v (status %d %s), y correct=%v", out.err, status, code, slices.Equal(out.y, want))
				}
			case <-time.After(10 * time.Second):
				t.Error("caller never answered")
			}
		}()
	}
	wg.Wait()
	if panicked.Load() < 1 || panicked.Load()+served.Load() != callers {
		t.Errorf("%d callers got kernel_panic, %d were served, of %d", panicked.Load(), served.Load(), callers)
	}
	// The batcher serves the next batch.
	r := spmvReq(x, nil)
	if err := b.Enqueue(r); err != nil {
		t.Fatal(err)
	}
	if out := <-r.done; out.err != nil || !slices.Equal(out.y, want) {
		t.Errorf("request after the panic: err=%v", out.err)
	}
	if !strings.Contains(logs.String(), "kernel bug") || !strings.Contains(logs.String(), "panicOnceKernel") {
		t.Errorf("panic not logged with its stack: %q", logs.String())
	}
	b.Stop()
	k.pool.Close()
	inner.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d at start", runtime.NumGoroutine(), base)
		}
	}
}
