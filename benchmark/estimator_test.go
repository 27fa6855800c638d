package main

import (
	"math"
	"testing"
)

// The gated value is the mean without the worst tenth: slow times for a time
// series, low rates for a rate series; fewer than ten samples all count.
func TestSeriesBestTrimmedMedian(t *testing.T) {
	s := series{}
	for i, v := range []float64{5, 3, 9, 4, 7} {
		s.add(i, v)
	}
	m := s.summary()
	if m.n != 5 || m.best != 3 || m.trimmed != 5.6 || m.median != 5 || s.gate() != 5.6 {
		t.Errorf("time series: n=%d best=%g trimmed=%g median=%g, want 5, 3, 5.6, 5", m.n, m.best, m.trimmed, m.median)
	}
	ten, rates := series{}, series{higherBetter: true}
	for i := 1; i <= 10; i++ {
		ten.add(i, float64(i))
		rates.add(i, float64(i))
	}
	if m := ten.summary(); m.trimmed != 5 || m.best != 1 {
		t.Errorf("times 1..10: trimmed=%g best=%g, want 5 (the 10 left out), 1", m.trimmed, m.best)
	}
	if m := rates.summary(); m.trimmed != 6 || m.best != 10 {
		t.Errorf("rates 1..10: trimmed=%g best=%g, want 6 (the 1 left out), 10", m.trimmed, m.best)
	}
	if m := (&series{}).summary(); m.n != 0 || !math.IsNaN(m.best) || !math.IsNaN(m.trimmed) || !math.IsNaN(m.median) {
		t.Errorf("empty series: %+v, want NaNs", m)
	}
}

// The p90 is reported only where at least ten samples lie beyond it, and it
// is always the bad tail: slow times, low rates.
func TestSeriesP90Rule(t *testing.T) {
	s := series{}
	for i := 0; i < 99; i++ {
		s.add(i, float64(i))
	}
	if m := s.summary(); !math.IsNaN(m.p90) {
		t.Errorf("99 samples: p90 = %g, want NaN (fewer than ten samples beyond it)", m.p90)
	}
	s.add(99, 99)
	if m := s.summary(); math.Abs(m.p90-89.1) > 1e-9 {
		t.Errorf("100 time samples 0..99: p90 = %g, want 89.1", m.p90)
	}
	r := series{higherBetter: true}
	for i := 0; i < 100; i++ {
		r.add(i, float64(i))
	}
	if m := r.summary(); math.Abs(m.p90-9.9) > 1e-9 {
		t.Errorf("100 rate samples 0..99: p90 = %g, want 9.9 (the slow tail)", m.p90)
	}
}

func TestSeriesSplitHalf(t *testing.T) {
	s := series{}
	s.add(0, 10) // even rounds: mean 11
	s.add(2, 12)
	s.add(1, 11) // odd rounds: mean 13
	s.add(3, 15)
	if m := s.summary(); math.Abs(m.splitHalf-2.0/12) > 1e-12 {
		t.Errorf("split-half = %g, want |13−11|/12", m.splitHalf)
	}
	one := series{}
	one.add(0, 1)
	one.add(2, 2)
	if m := one.summary(); !math.IsNaN(m.splitHalf) {
		t.Errorf("one parity only: split-half = %g, want NaN", m.splitHalf)
	}
}

func TestShareTakesEverySampleOnce(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 40, 601} {
		for _, rounds := range []int{1, 2, 12} {
			total, lo, hi := 0, n, 0
			for r := 0; r < rounds; r++ {
				k := share(n, r, rounds)
				total += k
				lo, hi = min(lo, k), max(hi, k)
			}
			if total != n || hi-lo > 1 {
				t.Errorf("share(%d, ·, %d): total %d, per-round %d..%d", n, rounds, total, lo, hi)
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the acceptance driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	want := [3]float64{2.75, 5.5, 8.25}
	if got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	got = quartiles([]float64{3, 1, 2})
	want = [3]float64{1, 2, 3}
	if got != want {
		t.Errorf("quartiles(3,1,2) = %v, want %v", got, want)
	}
	if med, spread := medianSpread([]float64{10, 10, 10, 12, 8}); med != 10 || math.Abs(spread-0.2) > 1e-12 {
		t.Errorf("medianSpread = %g, %g, want 10, 0.2 (quartiles 9, 10, 11)", med, spread)
	}
}
