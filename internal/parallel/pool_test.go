package parallel

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"testing/quick"
	"time"
)

func TestPoolRunsAllWorkers(t *testing.T) {
	for _, n := range []int{1, 2, 8, 32} {
		p := NewPool(n)
		seen := make([]int32, n)
		p.Run(func(tid int) { atomic.AddInt32(&seen[tid], 1) })
		p.Run(func(tid int) { atomic.AddInt32(&seen[tid], 1) })
		p.Close()
		for tid, c := range seen {
			if c != 2 {
				t.Fatalf("n=%d: worker %d ran %d times, want 2", n, tid, c)
			}
		}
	}
}

func TestRunIsABarrier(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var counter int64
	for round := 0; round < 10; round++ {
		p.Run(func(int) { atomic.AddInt64(&counter, 1) })
		// If Run returned before all workers finished, this read could see
		// a partial count.
		if got := atomic.LoadInt64(&counter); got != int64(4*(round+1)) {
			t.Fatalf("after round %d: counter = %d, want %d", round, got, 4*(round+1))
		}
	}
}

func TestRunChunkedCoversRange(t *testing.T) {
	p := NewPool(5)
	defer p.Close()
	const n = 103
	marks := make([]int32, n)
	p.RunChunked(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&marks[i], 1)
		}
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("index %d visited %d times", i, m)
		}
	}
}

func TestNewPoolPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NewPool(0)")
		}
	}()
	NewPool(0)
}

func TestCloseThenRunPanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // double Close is a no-op
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Run after Close")
		}
	}()
	p.Run(func(int) {})
}

// Regression: closed used to be a plain bool read by Run and written by
// Close, so a Close racing an in-flight Run was a data race with silent
// outcomes. The Pool now panics deterministically on any violation of its
// single-goroutine ownership contract.
func TestCloseDuringRunPanics(t *testing.T) {
	p := NewPool(2)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(func(tid int) {
			if tid == 0 {
				close(started)
			}
			<-release
		})
	}()
	<-started
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for Close during Run")
			}
		}()
		p.Close()
	}()
	close(release)
	<-done
	p.Close()
}

func TestConcurrentRunPanics(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(func(tid int) {
			if tid == 0 {
				close(started)
			}
			<-release
		})
	}()
	<-started
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for overlapping Run")
			}
		}()
		p.Run(func(int) {})
	}()
	close(release)
	<-done
}

// RunPhases must order phases: no participant may enter phase i+1 before
// every participant finished phase i, and data written in phase i must be
// visible in phase i+1 without further synchronization. The writes below are
// plain (non-atomic), so running this under -race also validates the
// happens-before edges of the hand-off (caller → workers), the barriers and
// the countdown (workers → caller, who checks sum).
func runPhasesOrdering(t *testing.T, n int) {
	t.Helper()
	p := NewPool(n)
	defer p.Close()
	runPhasesOrderingOn(t, p)
}

func runPhasesOrderingOn(t *testing.T, p *Pool) {
	t.Helper()
	n := p.Size()
	a := make([]int, n)
	b := make([]int, n)
	var sum int
	for round := 0; round < 50; round++ {
		p.RunPhases(
			func(tid int) { a[tid] = tid + 1 },
			func(tid int) { b[tid] = a[(tid+1)%n] * 2 }, // reads a neighbour's phase-1 write
			func(tid int) {
				if tid == n-1 {
					s := 0
					for _, v := range b {
						s += v
					}
					sum = s
				}
			},
		)
		want := n * (n + 1) // 2·Σ(tid+1)
		if sum != want {
			t.Fatalf("n=%d GOMAXPROCS=%d round=%d: sum=%d, want %d", n, runtime.GOMAXPROCS(0), round, sum, want)
		}
	}
}

func TestRunPhasesOrdering(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		runPhasesOrdering(t, n)
	}
}

// The hand-off must stay correct when the pool is oversubscribed (more
// participants than GOMAXPROCS): workers park instead of spinning, barrier
// and countdown waiters yield at once, and the generation words still carry
// the release ordering.
func TestRunPhasesSpinOversubscribed(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		runPhasesOrdering(t, 8)
		runtime.GOMAXPROCS(prev)
	}
}

// tid 0 is the calling goroutine: a pool of one starts no goroutine at all,
// and a pool of n starts n−1.
func TestCallerRunsTidZero(t *testing.T) {
	base := runtime.NumGoroutine()
	one := NewPool(1)
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("NewPool(1) started %d goroutines", got-base)
	}
	one.Run(func(int) {})
	one.Close()

	p := NewPool(4)
	defer p.Close()
	if got := runtime.NumGoroutine(); got != base+3 {
		t.Errorf("NewPool(4) started %d goroutines, want 3", got-base)
	}
	var buf [64]byte
	me := string(buf[:runtime.Stack(buf[:], false)]) // "goroutine N [running]:…"
	me = me[:strings.Index(me, "[")]
	ids := make([]string, 4)
	p.Run(func(tid int) {
		var buf [64]byte
		ids[tid] = string(buf[:runtime.Stack(buf[:], false)])
	})
	for tid, id := range ids {
		if strings.HasPrefix(id, me) != (tid == 0) {
			t.Errorf("tid %d ran on %q, caller is %q", tid, id, me)
		}
	}
}

// parkedWorkers counts the workers sitting on their wake token.
func parkedWorkers(p *Pool) int {
	n := 0
	for i := range p.slots {
		if p.slots[i].parked.Load() {
			n++
		}
	}
	return n
}

// waitFor polls cond for up to two seconds.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// An idle pool burns no CPU: a worker spins for its bounded budget after an
// operation and then parks, which the parks counter records.
func TestIdlePoolParks(t *testing.T) {
	n := max(2, runtime.GOMAXPROCS(0))
	p := NewPool(n)
	defer p.Close()
	parks0 := poolParks.Value()
	for i := 0; i < 100; i++ {
		p.Run(func(int) {})
	}
	time.Sleep(50 * time.Millisecond)
	if got := parkedWorkers(p); got != n-1 {
		t.Fatalf("50 ms after the last Run %d of %d workers are parked", got, n-1)
	}
	if got := poolParks.Value() - parks0; got < int64(n-1) {
		t.Errorf("parks counter moved by %d, want at least %d", got, n-1)
	}
	used := time.Hour
	for try := 0; try < 3 && used > 5*time.Millisecond; try++ { // the runtime's own background work may land in one window
		c0 := cpuTime(t)
		time.Sleep(50 * time.Millisecond)
		used = cpuTime(t) - c0
	}
	if used > 5*time.Millisecond {
		t.Errorf("idle pool of %d used %v of CPU in 50 ms", n, used)
	}
	// Parked workers take the next operation like spinning ones.
	var ran atomic.Int32
	p.Run(func(int) { ran.Add(1) })
	if int(ran.Load()) != n {
		t.Errorf("Run after parking reached %d of %d participants", ran.Load(), n)
	}
}

// Close ends parked and spinning workers alike.
func TestCloseEndsParkedAndSpinningWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, park := range []bool{true, false} {
		p := NewPool(4)
		p.Run(func(int) {})
		if park && !waitFor(func() bool { return parkedWorkers(p) == 3 }) {
			t.Fatal("workers did not park")
		}
		p.Close()
		if !waitFor(func() bool { return runtime.NumGoroutine() <= base }) {
			t.Errorf("park=%v: %d goroutines after Close, %d before NewPool", park, runtime.NumGoroutine(), base)
		}
	}
}

// A panic in a phase body on any participant — the caller's tid 0, the last
// worker, or between two barriers of a three-phase list — never hangs the
// peers sitting in a barrier: it comes out of the call as a *PhasePanic on
// the owning goroutine, and the same pool then runs a correct operation.
func TestPhasePanicIsContained(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, n := range []int{2, 4, 8} {
		for _, tc := range []struct {
			name       string
			tid, phase int
		}{{"tid0", 0, 0}, {"last", n - 1, 0}, {"between-barriers", n / 2, 1}} {
			p := NewPool(n)
			l := &PhaseList{Phases: []Phase{
				ComputePhase("test/p0", nil),
				ReductionPhase("test/p1", nil),
				ComputePhase("test/p2", nil),
			}}
			for i := range l.Phases {
				l.Phases[i].Fn = func(tid int) {
					if tid == tc.tid && i == tc.phase {
						panic("boom")
					}
				}
			}
			for _, run := range []func(){
				func() { p.RunPhaseList(l) },
				func() { p.RunSampled(l) },
			} {
				pp := catchPhasePanic(run)
				if pp == nil || pp.Tid != tc.tid || pp.Value != "boom" || !strings.Contains(string(pp.Stack), "TestPhasePanicIsContained") {
					t.Fatalf("n=%d %s: recovered %+v", n, tc.name, pp)
				}
				if !strings.Contains(pp.Error(), "boom") {
					t.Errorf("Error() = %q", pp.Error())
				}
				runPhasesOrderingOn(t, p)
			}
			p.Close()
		}
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() <= base }) {
		t.Errorf("%d goroutines left, %d at start", runtime.NumGoroutine(), base)
	}
}

// Several participants panicking at once still yield exactly one PhasePanic.
func TestPhasePanicOnEveryParticipant(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for round := 0; round < 20; round++ {
		if pp := catchPhasePanic(func() { p.RunPhases(func(int) {}, func(tid int) { panic(tid) }, func(int) {}) }); pp == nil || pp.Value != pp.Tid {
			t.Fatalf("round %d: recovered %+v", round, pp)
		}
	}
	runPhasesOrderingOn(t, p)
}

// A body that re-enters its own pool trips the ownership guard inside a phase:
// that too surfaces as a PhasePanic instead of a deadlock.
func TestReentrantRunIsAPhasePanic(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	pp := catchPhasePanic(func() {
		p.Run(func(tid int) {
			if tid == 1 {
				p.Run(func(int) {})
			}
		})
	})
	if pp == nil || pp.Tid != 1 {
		t.Fatalf("recovered %+v", pp)
	}
	runPhasesOrderingOn(t, p)
}

func catchPhasePanic(run func()) (pp *PhasePanic) {
	defer func() { pp, _ = recover().(*PhasePanic) }()
	run()
	return nil
}

func TestSpinBarrierRounds(t *testing.T) {
	const n, rounds = 6, 100
	bar := NewSpinBarrier(n)
	// data[i] is written by participant i in each round and read by all
	// participants in the next round — plain accesses, checked under -race.
	data := make([]int, n)
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				data[id] = r + 1
				bar.Wait()
				for j := 0; j < n; j++ {
					if data[j] != r+1 {
						errs <- "stale read"
						return
					}
				}
				bar.Wait()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestNewSpinBarrierPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NewSpinBarrier(0)")
		}
	}()
	NewSpinBarrier(0)
}

func TestHandoffCounter(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	noop := func(int) {}

	p.ResetHandoffs()
	p.Run(noop)
	if got := p.Handoffs(); got != 1 {
		t.Fatalf("Run: %d handoffs, want 1", got)
	}

	p.ResetHandoffs()
	p.RunPhases(noop, noop, noop)
	if got := p.Handoffs(); got != 1 {
		t.Fatalf("RunPhases(3 phases): %d handoffs, want 1", got)
	}

	p.ResetHandoffs()
	p.RunPhases() // empty phase list: no dispatch at all
	if got := p.Handoffs(); got != 0 {
		t.Fatalf("RunPhases(): %d handoffs, want 0", got)
	}
}

// Property: Chunk partitions [0,n) exactly — contiguous, ordered, covering.
func TestQuickChunk(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw % 5000)
		p := 1 + int(pRaw%64)
		prevHi := 0
		for tid := 0; tid < p; tid++ {
			lo, hi := Chunk(n, p, tid)
			if lo != prevHi || hi < lo {
				return false
			}
			prevHi = hi
		}
		return prevHi == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkBalance(t *testing.T) {
	lo0, hi0 := Chunk(10, 3, 0)
	lo1, hi1 := Chunk(10, 3, 1)
	lo2, hi2 := Chunk(10, 3, 2)
	if hi0-lo0 != 4 || hi1-lo1 != 3 || hi2-lo2 != 3 {
		t.Fatalf("Chunk(10,3): sizes %d,%d,%d", hi0-lo0, hi1-lo1, hi2-lo2)
	}
}

func TestDefaultThreadsPositive(t *testing.T) {
	if DefaultThreads() < 1 {
		t.Fatal("DefaultThreads < 1")
	}
}

func TestChunkEdgeCases(t *testing.T) {
	// n == 0: every chunk is empty.
	for tid := 0; tid < 4; tid++ {
		if lo, hi := Chunk(0, 4, tid); lo != 0 || hi != 0 {
			t.Errorf("Chunk(0,4,%d) = [%d,%d), want [0,0)", tid, lo, hi)
		}
	}
	// n < p: the first n chunks carry one element, the rest are empty.
	for tid := 0; tid < 8; tid++ {
		lo, hi := Chunk(3, 8, tid)
		wantLen := 0
		if tid < 3 {
			wantLen = 1
		}
		if hi-lo != wantLen {
			t.Errorf("Chunk(3,8,%d) has len %d, want %d", tid, hi-lo, wantLen)
		}
	}
	// Remainder distribution: r leading chunks get the extra element.
	n, p := 17, 5 // q=3, r=2 → sizes 4,4,3,3,3
	want := []int{4, 4, 3, 3, 3}
	for tid := 0; tid < p; tid++ {
		if lo, hi := Chunk(n, p, tid); hi-lo != want[tid] {
			t.Errorf("Chunk(%d,%d,%d) has len %d, want %d", n, p, tid, hi-lo, want[tid])
		}
	}
	// p == 1 takes everything.
	if lo, hi := Chunk(42, 1, 0); lo != 0 || hi != 42 {
		t.Errorf("Chunk(42,1,0) = [%d,%d), want [0,42)", lo, hi)
	}
}

func TestRunChunkedEdgeCases(t *testing.T) {
	p := NewPool(8)
	defer p.Close()

	// n == 0: fn still runs exactly Size() times, all chunks empty.
	var calls, nonEmpty int32
	p.RunChunked(0, func(_, lo, hi int) {
		atomic.AddInt32(&calls, 1)
		if lo != hi {
			atomic.AddInt32(&nonEmpty, 1)
		}
	})
	if calls != 8 || nonEmpty != 0 {
		t.Fatalf("RunChunked(0): %d calls (%d non-empty), want 8 calls all empty", calls, nonEmpty)
	}

	// n < p: each of the n elements visited exactly once, trailing chunks empty.
	const n = 5
	marks := make([]int32, n)
	p.RunChunked(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&marks[i], 1)
		}
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("RunChunked(%d) with p=8: index %d visited %d times", n, i, m)
		}
	}
}
