package blocks

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Blocks settle in run order whatever order their jobs end in, Run returns
// with at most ahead of them queued, a refused block stays queued for Close
// to return, and the helpers are gone once Close returns — at one processor,
// where no helper starts, and at four.
func TestPipeSettlesInOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var started atomic.Int32
	defer func(s func(func())) { Spawn = s }(Spawn)
	Spawn = func(f func()) { started.Add(1); go f() }
	type block struct{ i int }
	const n, ahead, refuse = 40, 3, 31
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		baseline := runtime.NumGoroutine()
		started.Store(0)
		var p Pipe[*block]
		var settled []int
		job := func(b *block) { time.Sleep(time.Duration(b.i*7%5) * 100 * time.Microsecond) } // ends out of order
		step := func(b *block) bool {
			if b.i == refuse {
				return false
			}
			settled = append(settled, b.i)
			return true
		}
		ok := true
		for i := 0; i < n && ok; i++ {
			ok = p.Run(&block{i: i}, job, i < n-1, ahead, step)
			if ok && len(p.queue) > ahead {
				t.Fatalf("GOMAXPROCS=%d: %d blocks queued after Run, ahead %d", procs, len(p.queue), ahead)
			}
		}
		if ok {
			t.Fatalf("GOMAXPROCS=%d: block %d was not refused", procs, refuse)
		}
		if p.Settle(0, step) {
			t.Fatalf("GOMAXPROCS=%d: Settle passed the refused block", procs)
		}
		rest := p.Close()
		if len(rest) == 0 || rest[0].i != refuse {
			t.Fatalf("GOMAXPROCS=%d: %d blocks left, want block %d first", procs, len(rest), refuse)
		}
		for k, i := range settled {
			if i != k {
				t.Fatalf("GOMAXPROCS=%d: settled %v, want 0..%d in order", procs, settled, refuse-1)
			}
		}
		if len(settled) != refuse {
			t.Fatalf("GOMAXPROCS=%d: %d blocks settled, want %d", procs, len(settled), refuse)
		}
		if n := started.Load(); (n > 0) != (procs > 1) {
			t.Errorf("GOMAXPROCS=%d: %d helpers started", procs, n)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS=%d: %d goroutines after Close, %d before", procs, runtime.NumGoroutine(), baseline)
			}
		}
	}
}

// A stream of one block runs it on the caller and starts no helper.
func TestPipeOneBlockStartsNoHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var started atomic.Int32
	defer func(s func(func())) { Spawn = s }(Spawn)
	Spawn = func(f func()) { started.Add(1); go f() }
	var p Pipe[int]
	ran := 0
	if !p.Run(7, func(int) { ran++ }, false, 2, func(int) bool { return true }) || ran != 1 {
		t.Fatalf("the one block did not run and settle: ran %d", ran)
	}
	if rest := p.Close(); len(rest) != 0 || started.Load() != 0 {
		t.Fatalf("%d blocks left, %d helpers started", len(rest), started.Load())
	}
}
