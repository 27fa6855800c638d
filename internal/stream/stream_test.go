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
	if res.Triad <= 0 {
		t.Errorf("triad rate %g not positive", res.Triad)
	}
}

func TestGB(t *testing.T) {
	if GB(2e9) != 2.0 {
		t.Fatalf("GB(2e9) = %g", GB(2e9))
	}
}

func TestRunKernelsComputeCorrectly(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	n := 1000
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), 2
	}
	triad(pool, a, b, c, 3)
	for i, v := range a {
		if v != float64(i)+6 {
			t.Fatalf("triad wrong at %d: %g, want %g", i, v, float64(i)+6)
		}
	}
}
