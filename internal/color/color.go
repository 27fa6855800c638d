// Package color builds the zero-reduction schedule of the symmetric SpM×V
// (DESIGN.md §9): phase 1 runs each nnz range without the elements whose
// column lies below the range's start, phase 2 runs those deferred elements,
// and one comparison per row (Verify) keeps both phases free of races.
package color

import (
	"fmt"

	"repro/internal/partition"
)

// Options configures schedule construction; there is nothing to configure.
type Options struct{}

// Schedule is the two-phase plan for one thread count.
type Schedule struct {
	P         int                     // thread count the schedule targets
	Part      *partition.RowPartition // thread t runs [Start[t], End[t]); merged-away threads own [n, n)
	Frontier  []int32                 // range t's rows from Frontier[t] on store no column below Start[t]
	NumColors int                     // phases: 2 when any element is deferred, else 1
	Deferred  int64                   // stored elements phase 2 runs
	Busy      float64                 // total work (elements + rows) / (busiest phase-1 range's + busiest phase-2 range's)
}

// Build schedules the strict-lower CSR structure (rowPtr, colIdx, columns
// ascending) of an n×n matrix on partition.ByNNZ's p ranges, merging a range
// that defers a column below its predecessor's frontier into it (a cascade).
func Build(n int, rowPtr, colIdx []int32, p int, _ Options) *Schedule {
	split := partition.ByNNZ(rowPtr, p)
	var start, end, front, low []int32 // low[t]: the lowest column range t defers
	for t := range p {
		f, l := partition.Frontier(rowPtr, colIdx, split.Start[t], split.End[t])
		start, end, front, low = append(start, split.Start[t]), append(end, split.End[t]), append(front, f), append(low, l)
		for k := len(start) - 1; k > 0 && low[k] < front[k-1]; k-- { // merge range k into k−1
			start, end, front, low = start[:k], append(end[:k-1], end[k]), front[:k], low[:k]
			front[k-1], low[k-1] = partition.Frontier(rowPtr, colIdx, start[k-1], end[k-1])
		}
	}
	for len(start) < p { // the threads merges left idle
		start, end, front = append(start, int32(n)), append(end, int32(n)), append(front, int32(n))
	}
	sc := &Schedule{P: p, Part: &partition.RowPartition{Start: start, End: end}, Frontier: front}
	var total, own, cross int64
	for t := range p {
		var d int64
		for _, c := range colIdx[rowPtr[start[t]]:rowPtr[front[t]]] {
			if c < start[t] {
				d++
			}
		}
		w := sc.Part.NNZOf(rowPtr, t) + int64(end[t]-start[t])
		total, own, cross, sc.Deferred = total+w, max(own, w-d), max(cross, d), sc.Deferred+d
	}
	sc.NumColors = 1 + int(min(sc.Deferred, 1)) // a second phase when anything is deferred
	sc.Busy = float64(total) / float64(max(own+cross, 1))
	if err := sc.Verify(rowPtr, colIdx); err != nil {
		panic(err)
	}
	return sc
}

// Verify rescans every range, one comparison per row: each frontier must be
// exact and no range may defer a column below the previous frontier. Then phase
// 1 writes inside each range, and range t's phase 2 in [Frontier[t−1], Frontier[t]).
func (sc *Schedule) Verify(rowPtr, colIdx []int32) error {
	if err := sc.Part.Validate(len(rowPtr) - 1); err != nil || sc.Part.P() != sc.P || len(sc.Frontier) != sc.P {
		return fmt.Errorf("color: %d ranges and %d frontiers for %d threads: %v", sc.Part.P(), len(sc.Frontier), sc.P, err)
	}
	bound := int32(0)
	for t, mid := range sc.Frontier {
		lo, hi := sc.Part.Start[t], sc.Part.End[t]
		if f, l := partition.Frontier(rowPtr, colIdx, lo, hi); f != mid || l < bound || (f > lo && sc.NumColors != 2) {
			return fmt.Errorf("color: range %d [%d, %d): frontier %d (scan: %d), lowest deferred column %d (bound %d), %d phases",
				t, lo, hi, mid, f, l, bound, sc.NumColors)
		}
		bound = mid
	}
	return nil
}
