package main

import (
	"math"
	"sort"
)

// series collects the samples of one timed quantity. The gated value is the
// mean of the best nine tenths of the samples: what an operation costs on
// average, the slowest tenth (collector pauses, preemptions) left out. On
// this box the program's two-thread operations run at two speeds 1.6–1.9×
// apart (the pool hands work over channels, and the two halves do not always
// run side by side), flipping within seconds or less, and the share of a run's
// samples at the slow speed was anywhere between 15 % and 100 % over one day.
// The best sample (STREAM's "best of k trials", what ISSUE 15 asked for)
// spread 27–54 % across processes when the fast speed was rare, and every
// quantile jumps from one speed to the other where the slow share crosses it:
// the median spread up to 41 %, the lower quartile up to 30 %. A mean moves
// with the share and never jumps; it stayed within 22 % everywhere (README.md
// has the tables). The median, the best sample, the p90 and the split-half
// disagreement are printed beside it as diagnostics and never gated.
type series struct {
	higherBetter bool // a rate (best = max) instead of a time (best = min)
	vals         []float64
	rounds       []int // round each sample was taken in; drives the split-half check
}

func (s *series) add(round int, v float64) {
	s.vals = append(s.vals, v)
	s.rounds = append(s.rounds, round)
}

// summary is what the benchmark prints for one series.
type summary struct {
	n         int
	best      float64
	trimmed   float64 // the gated value: mean of the samples with the worst tenth (rounded down) left out
	median    float64
	p90       float64 // NaN unless at least ten samples lie beyond it
	splitHalf float64 // |trimmed(odd rounds) − trimmed(even rounds)| / trimmed; NaN with one parity only
}

// gate is the value of the series that metrics are built from.
func (s *series) gate() float64 { return s.summary().trimmed }

// bestOf returns the best value of vals under the series' direction.
func (s *series) bestOf(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	b := vals[0]
	for _, v := range vals[1:] {
		if (s.higherBetter && v > b) || (!s.higherBetter && v < b) {
			b = v
		}
	}
	return b
}

func (s *series) summary() summary {
	out := summary{n: len(s.vals), best: s.bestOf(s.vals), trimmed: math.NaN(), median: math.NaN(), p90: math.NaN(), splitHalf: math.NaN()}
	if out.n == 0 {
		return out
	}
	// Sorted from best to worst, so the trimmed tenth and the 90th percentile
	// are always the bad tail, whichever direction is better.
	sorted := s.bestToWorst(s.vals)
	out.trimmed = trimmedMean(sorted)
	out.median = quantile(sorted, 0.5)
	// A percentile is reported only where at least ten samples lie beyond it.
	if out.n/10 >= 10 {
		out.p90 = quantile(sorted, 0.9)
	}
	var odd, even []float64
	for i, v := range s.vals {
		if s.rounds[i]%2 == 1 {
			odd = append(odd, v)
		} else {
			even = append(even, v)
		}
	}
	if len(odd) > 0 && len(even) > 0 && out.trimmed != 0 {
		out.splitHalf = math.Abs(trimmedMean(s.bestToWorst(odd))-trimmedMean(s.bestToWorst(even))) / math.Abs(out.trimmed)
	}
	return out
}

// bestToWorst returns a sorted copy of vals, best sample first.
func (s *series) bestToWorst(vals []float64) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if s.higherBetter {
		for i, j := 0, len(sorted)-1; i < j; i, j = i+1, j-1 {
			sorted[i], sorted[j] = sorted[j], sorted[i]
		}
	}
	return sorted
}

// trimmedMean is the mean of a best-to-worst sorted slice without its last
// tenth, rounded down: every sample of fewer than ten counts.
func trimmedMean(sorted []float64) float64 {
	keep := sorted[:len(sorted)-len(sorted)/10]
	var sum float64
	for _, v := range keep {
		sum += v
	}
	return sum / float64(len(keep))
}

// quantile interpolates linearly in a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// share returns how many of n samples round r of R takes, so that the R
// rounds together take exactly n and no two rounds differ by more than one.
func share(n, r, R int) int {
	return (r+1)*n/R - r*n/R
}
