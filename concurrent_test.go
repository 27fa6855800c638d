package symspmv

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/autotune"
)

// testSystem builds a small well-conditioned SPD matrix with a reference
// solution for the concurrency tests.
func testSystem(t *testing.T, n int) (*Matrix, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	b := NewBuilder(n)
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
		b.Set(i, i, 2*deg+4) // strongly diagonally dominant ⇒ SPD, κ small
	}
	A, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return A, x
}

// The kernel contract: one Kernel shared by many goroutines, mixed MulVec /
// MulVecDot-backed solves / MulMat, every caller sees results identical to a
// private serial run. Run under -race (make race does), this is the proof
// that the facade's serialization actually covers the kernel's shared
// per-operation state (operand slots, local vectors, dot partials).
func TestKernelConcurrentCallers(t *testing.T) {
	const n, workers, opsPerWorker = 500, 8, 12
	A, xin := testSystem(t, n)

	// The reordered plan shares one permutation scratch among its callers.
	for _, f := range []autotune.Plan{{Format: SSSIndexed, Threads: 2}, {Format: SSSColored, Threads: 2},
		{Format: CSR, Threads: 2}, {Format: SSSIndexed, Threads: 2, Reorder: true}} {
		k, err := A.planKernel(f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		// Reference from this kernel itself, before any concurrency: repeated
		// kernel operations are deterministic, and SpMM lanes are documented
		// bitwise identical to MulVec, so every concurrent result must match
		// exactly. (The serial Matrix.MulVec differs in the last ulp — the
		// parallel reduction associates differently.)
		ref := make([]float64, n)
		k.MulVec(xin, ref)
		var wg sync.WaitGroup
		errs := make(chan error, workers*opsPerWorker)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				y := make([]float64, n)
				for op := 0; op < opsPerWorker; op++ {
					switch {
					case op%3 == 1:
						// interleaved 2-lane SpMM with both lanes = xin
						x2 := make([]float64, 2*n)
						y2 := make([]float64, 2*n)
						for i := 0; i < n; i++ {
							x2[2*i], x2[2*i+1] = xin[i], xin[i]
						}
						if err := MulMat(k, x2, y2, 2); err != nil {
							var me *MulMatError
							if errors.As(err, &me) && f.Format == CSR {
								errs <- err
								return
							}
							if !errors.As(err, &me) {
								errs <- err
								return
							}
							continue // format without SpMM: fine, typed error
						}
						for i := 0; i < n; i++ {
							if y2[2*i] != ref[i] || y2[2*i+1] != ref[i] {
								t.Errorf("%v worker %d: MulMat lane mismatch at row %d", f, w, i)
								return
							}
						}
					default:
						k.MulVec(xin, y)
						for i := range y {
							if y[i] != ref[i] {
								t.Errorf("%v worker %d: MulVec[%d] = %g, ref %g", f, w, i, y[i], ref[i])
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%v: %v", f, err)
		}
		k.Close()
	}
}

// Concurrent CG solves on one shared kernel: each goroutine owns its own
// b/x vectors, so the only shared state is the kernel — exactly the serving
// pattern. Every solve must converge to the same solution.
func TestSolveCGConcurrentOnSharedKernel(t *testing.T) {
	const n, solvers = 400, 6
	A, xstar := testSystem(t, n)
	b := make([]float64, n)
	A.MulVec(xstar, b)

	k, err := A.Kernel(SSSIndexed, Threads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()

	var wg sync.WaitGroup
	for s := 0; s < solvers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			x := make([]float64, n)
			res, err := SolveCG(k, b, x, CGOptions{Tol: 1e-12, Context: context.Background()})
			if err != nil {
				t.Errorf("solver %d: %v", s, err)
				return
			}
			if !res.Converged {
				t.Errorf("solver %d did not converge: %v", s, res)
				return
			}
			for i := range x {
				if d := math.Abs(x[i] - xstar[i]); d > 1e-8*(1+math.Abs(xstar[i])) {
					t.Errorf("solver %d: x[%d] = %g, want %g", s, i, x[i], xstar[i])
					return
				}
			}
		}(s)
	}
	wg.Wait()
}

// Close racing in-flight operations: the mutex means Close waits for the
// running operation, and operations started after Close observe the closed
// state (panic for MulVec, typed error for MulMat) instead of dispatching
// into a released pool.
func TestKernelCloseDuringConcurrentOps(t *testing.T) {
	const n = 300
	A, xin := testSystem(t, n)
	k, err := A.Kernel(SSSIndexed, Threads(2))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = recover() }() // "closed Kernel" panic is the contract
			y := make([]float64, n)
			<-start
			for i := 0; i < 50; i++ {
				k.MulVec(xin, y)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		k.Close()
	}()
	close(start)
	wg.Wait()

	if err := MulMat(k, make([]float64, 2*n), make([]float64, 2*n), 2); err == nil {
		t.Fatal("MulMat on closed kernel returned nil error")
	}
}
