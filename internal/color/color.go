// Package color builds conflict-free colored schedules for the symmetric
// SpM×V, the prevention-based alternative to the paper's reduction methods
// (in the spirit of RACE — Alappat, Hager et al.: recursive algebraic
// coloring for symmetric SpMV).
//
// The symmetric kernel makes two writes per stored lower-triangle element
// (r, c): the row contribution to y[r] and the transpose contribution to
// y[c]. A row block's writes therefore lie in [its rows' lowest column, its
// own end). The schedule keeps the blocks in row order and holds one
// invariant: no row of block b stores a column before the start of block
// b−1. Then block b writes only inside [Start[b−1], End[b]), so blocks two or
// more apart never write the same element, and two colors — even blocks, then
// odd blocks — suffice, with every thread writing y directly: no local
// vectors, no reduction phase. The price is two barriers instead of one
// multiply→reduce pair, and a matrix must be in a banded (e.g. RCM) order for
// the invariant to leave many blocks.
package color

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/partition"
)

// Options configures schedule construction. The zero value is ready to use.
type Options struct {
	// BlocksPerThread is the number of row blocks carved per thread before
	// blocks that break the invariant are merged. More blocks give finer load
	// balance at the cost of shorter per-phase work items. Default 8.
	BlocksPerThread int
}

// Schedule is one conflict-free execution plan: a row-block partition in row
// order, the parity coloring of its blocks, and a per-color assignment of
// blocks to threads. Blocks of the same color have disjoint write sets (see
// Verify), so a phase-per-color execution is race-free regardless of which
// thread runs which block.
type Schedule struct {
	P         int                     // thread count the schedule targets
	NumBlocks int                     // row blocks (≤ P·BlocksPerThread)
	Part      *partition.RowPartition // block b owns rows [Start[b], End[b])
	Color     []int32                 // Color[b] = b mod 2
	NumColors int                     // 1 for a single block, else 2
	// Assign[c][tid] lists the blocks thread tid executes during color phase
	// c, balanced by stored-nonzero count within each color.
	Assign [][][]int32
	// Busy is how many threads the phases keep busy: the total work over the
	// sum, across colors, of the busiest thread's work. P when every phase
	// splits evenly; near 1 when merging left one block doing nearly all of
	// it.
	Busy float64
}

// Build constructs a colored schedule for the strict-lower-triangle CSR
// structure (rowPtr, colIdx) of an n×n symmetric matrix at p threads, with
// each row's columns ascending. It splits the rows by nonzeros into
// p·BlocksPerThread blocks (one block at p = 1), then walks them once,
// merging into its predecessor every block whose rows reach before the
// predecessor's start; a merged block is checked again against its own
// predecessor. A matrix far from a banded order keeps few blocks — possibly
// one — but always gets a valid schedule. Build panics with Verify's error if
// the result breaks the invariant.
func Build(n int, rowPtr, colIdx []int32, p int, opt Options) *Schedule {
	if p <= 0 {
		panic(fmt.Sprintf("color: Build with p=%d", p))
	}
	if opt.BlocksPerThread <= 0 {
		opt.BlocksPerThread = 8
	}
	nb := min(p*opt.BlocksPerThread, n)
	if p == 1 || nb < 1 {
		nb = 1
	}
	split := partition.ByNNZ(rowPtr, nb)

	// first[i] is the lowest column any row of surviving block i stores.
	var start, end, first []int32
	for b := range nb {
		lo, hi := split.Start[b], split.End[b]
		if lo == hi && len(start) > 0 {
			continue // trailing empty block: nothing to schedule
		}
		f := lo
		for r := lo; r < hi; r++ {
			if rowPtr[r] < rowPtr[r+1] {
				f = min(f, colIdx[rowPtr[r]])
			}
		}
		start, end, first = append(start, lo), append(end, hi), append(first, f)
		for k := len(start) - 1; k > 0 && first[k] < start[k-1]; k-- {
			end[k-1], first[k-1] = end[k], min(first[k-1], first[k])
			start, end, first = start[:k], end[:k], first[:k]
		}
	}

	sc := &Schedule{
		P:         p,
		NumBlocks: len(start),
		Part:      &partition.RowPartition{Start: start, End: end},
		Color:     make([]int32, len(start)),
		NumColors: min(len(start), 2),
	}
	for b := range sc.Color {
		sc.Color[b] = int32(b % 2)
	}
	if err := sc.Verify(rowPtr, colIdx); err != nil {
		panic(err)
	}
	sc.assign(rowPtr)
	return sc
}

// Verify checks the invariant that makes the schedule conflict-free: the
// blocks tile the rows in order, colors alternate, and no row of block b
// stores a column before Start[b−1] — one comparison per row, because each
// row's columns ascend. Two same-color blocks b < b' are at least two apart,
// and block b' writes only at or after Start[b'−1] ≥ End[b], so their write
// sets are disjoint.
func (sc *Schedule) Verify(rowPtr, colIdx []int32) error {
	n := len(rowPtr) - 1
	if err := sc.Part.Validate(n); err != nil {
		return fmt.Errorf("color: %w", err)
	}
	if len(sc.Part.Start) != sc.NumBlocks || len(sc.Color) != sc.NumBlocks ||
		sc.NumColors != min(sc.NumBlocks, 2) {
		return fmt.Errorf("color: %d blocks, %d starts, %d block colors, %d colors",
			sc.NumBlocks, len(sc.Part.Start), len(sc.Color), sc.NumColors)
	}
	for b := range sc.NumBlocks {
		if sc.Color[b] != int32(b%2) {
			return fmt.Errorf("color: block %d has color %d, want %d", b, sc.Color[b], b%2)
		}
		if b == 0 {
			continue
		}
		prev := sc.Part.Start[b-1]
		for r := sc.Part.Start[b]; r < sc.Part.End[b]; r++ {
			if j := rowPtr[r]; j < rowPtr[r+1] && colIdx[j] < prev {
				return fmt.Errorf("color: row %d of block %d stores column %d, before block %d's start %d",
					r, b, colIdx[j], b-1, prev)
			}
		}
	}
	return nil
}

// assign distributes each color's blocks across the threads with a greedy
// longest-processing-time heuristic on stored-nonzero weight, so the barrier
// closing each color phase waits on balanced work.
func (sc *Schedule) assign(rowPtr []int32) {
	type wb struct {
		b int32
		w int64
	}
	byColor := make([][]wb, sc.NumColors)
	var total, critical int64
	for b := 0; b < sc.NumBlocks; b++ {
		w := sc.Part.NNZOf(rowPtr, b) + int64(sc.Part.End[b]-sc.Part.Start[b])
		c := sc.Color[b]
		byColor[c] = append(byColor[c], wb{int32(b), w})
		total += w
	}
	sc.Assign = make([][][]int32, sc.NumColors)
	load := make([]int64, sc.P)
	for c := range byColor {
		sc.Assign[c] = make([][]int32, sc.P)
		blocks := byColor[c]
		slices.SortStableFunc(blocks, func(a, b wb) int { return cmp.Compare(b.w, a.w) })
		for i := range load {
			load[i] = 0
		}
		for _, e := range blocks {
			t := 0
			for i := 1; i < sc.P; i++ {
				if load[i] < load[t] {
					t = i
				}
			}
			sc.Assign[c][t] = append(sc.Assign[c][t], e.b)
			load[t] += e.w
		}
		critical += slices.Max(load)
	}
	sc.Busy = float64(sc.P)
	if critical > 0 {
		sc.Busy = float64(total) / float64(critical)
	}
}
