package color_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/color"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/partition"
	"repro/internal/reorder"
)

// lowerCSR generates one suite matrix at tiny scale and returns its
// strict-lower-triangle CSR structure.
func lowerCSR(t *testing.T, name string, scale float64) (int, []int32, []int32) {
	t.Helper()
	sp, err := gen.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gen.Generate(sp, scale)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	return s.N, s.RowPtr, s.ColIdx
}

// writeSets re-derives, from the stored elements alone, what range t of the
// schedule writes in each phase: phase 1 its own rows and every column at or
// past its start, phase 2 every column below its start and the rows storing
// one, plus the rows before its frontier, whose sums the phase-2 cell
// rewrites. It also reports a deferred element in a row at or past the
// frontier, which phase 2 would never run.
func writeSets(sc *color.Schedule, rowPtr, colIdx []int32, t int) (phase [2][]int32, missed int32) {
	lo, hi, missed := sc.Part.Start[t], sc.Part.End[t], int32(-1)
	for r := lo; r < hi; r++ {
		phase[0] = append(phase[0], r)
		if r < sc.Frontier[t] {
			phase[1] = append(phase[1], r)
		}
		for j := rowPtr[r]; j < rowPtr[r+1]; j++ {
			c := colIdx[j]
			if c >= lo {
				phase[0] = append(phase[0], c)
				continue
			}
			phase[1] = append(phase[1], c, r)
			if r >= sc.Frontier[t] {
				missed = r
			}
		}
	}
	return phase, missed
}

// ordered is one suite matrix in one row order.
type ordered struct {
	name, order string
	s           *core.SSS
}

// suiteOrders generates every gen spec at (up to) rows rows and returns its
// strict-lower-triangle structure in natural and in RCM order.
func suiteOrders(t *testing.T, rows int) []ordered {
	t.Helper()
	var out []ordered
	for _, suite := range [][]gen.Spec{gen.PaperSuite, gen.HubSuite, gen.ScatterSuite} {
		for _, sp := range suite {
			m, err := gen.Generate(sp, min(1, float64(rows)/float64(sp.Rows)))
			if err != nil {
				t.Fatal(err)
			}
			perm, err := reorder.RCM(m)
			if err != nil {
				t.Fatal(err)
			}
			rm, err := m.Permute(perm)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []struct {
				order string
				m     *matrix.COO
			}{{"natural", m}, {"rcm", rm}} {
				s, err := core.FromCOO(o.m)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, ordered{sp.Name, o.order, s})
			}
		}
	}
	return out
}

// TestColorScheduleProperty is the schedule-validity property test: for every
// suite matrix in natural and RCM order at p ∈ {1, 2, 3, 4, 8}, the schedule
// must pass Verify, give every thread a range, run every deferred element in
// phase 2, and keep each phase's write sets — re-derived from the elements —
// disjoint across ranges, checked by claiming rows in a bitmap per phase. On
// the RCM order of the banded stencils no range merges (at 6000 rows a p = 8
// range is wider than their band), and the phases keep at least (p+1)/2
// threads busy, the tuner's bar.
func TestColorScheduleProperty(t *testing.T) {
	banded := map[string]bool{"parabolic_fem": true, "G3_circuit": true, "thermal2": true, "scattered-band": true}
	for _, c := range suiteOrders(t, 6000) {
		s := c.s
		for _, p := range []int{1, 2, 3, 4, 8} {
			name := c.name + "/" + c.order
			sc := color.Build(s.N, s.RowPtr, s.ColIdx, p, color.Options{})
			if err := sc.Verify(s.RowPtr, s.ColIdx); err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			checkScheduleProperty(t, sc, name, s.N, s.RowPtr, s.ColIdx, p)
			if c.order == "rcm" && banded[c.name] && (live(sc) != p || sc.Busy < float64(p+1)/2) {
				t.Errorf("%s p=%d: %d ranges keep %.2f threads busy, want %d ranges and ≥ %.1f on a banded order",
					name, p, live(sc), sc.Busy, p, float64(p+1)/2)
			}
		}
	}
}

// live counts the ranges that kept rows, the threads a merge did not idle.
func live(sc *color.Schedule) int {
	n := 0
	for t := range sc.P {
		if sc.Part.Start[t] < sc.Part.End[t] {
			n++
		}
	}
	return n
}

func checkScheduleProperty(t *testing.T, sc *color.Schedule, name string, n int, rowPtr, colIdx []int32, p int) {
	t.Helper()
	if err := sc.Part.Validate(n); err != nil {
		t.Fatalf("%s p=%d: %v", name, p, err)
	}
	if sc.P != p || sc.Part.P() != p || len(sc.Frontier) != p {
		t.Fatalf("%s p=%d: %d ranges, %d frontiers for %d threads", name, p, sc.Part.P(), len(sc.Frontier), sc.P)
	}
	var deferred int64
	sets := make([][2][]int32, p)
	for tid := range p {
		var missed int32
		if sets[tid], missed = writeSets(sc, rowPtr, colIdx, tid); missed >= 0 {
			t.Fatalf("%s p=%d: row %d of range %d defers an element but lies past the frontier %d",
				name, p, missed, tid, sc.Frontier[tid])
		}
		deferred += int64(len(sets[tid][1])-int(sc.Frontier[tid]-sc.Part.Start[tid])) / 2
	}
	if sc.Deferred != deferred || (sc.NumColors == 2) != (deferred > 0) {
		t.Fatalf("%s p=%d: schedule reports %d deferred elements in %d phases, the elements say %d",
			name, p, sc.Deferred, sc.NumColors, deferred)
	}

	// Write-set disjointness within each phase: claim every written row in a
	// bitmap; a claim by a second range is a race the schedule was supposed
	// to prevent.
	claimed := make([]int32, n)
	for phase := range 2 {
		for i := range claimed {
			claimed[i] = -1
		}
		for tid := range p {
			for _, r := range sets[tid][phase] {
				if o := claimed[r]; o >= 0 && o != int32(tid) {
					t.Fatalf("%s p=%d phase %d: ranges %d and %d both write row %d", name, p, phase+1, o, tid, r)
				}
				claimed[r] = int32(tid)
			}
		}
	}
}

// TestColorCascadesTwoSteps builds a matrix whose nnz ranges at p = 4 are
// [0,5), [5,9), [9,13) and [13,17), one element a row, and whose check fails
// twice in a row: range 3 defers column 6, below range 2's frontier 10, so it
// merges into range 2; the merged range [9,17) defers column 6 too, below
// range 1's frontier 7, so it merges again, into [5,17), whose frontier is 7
// and whose lowest deferred column, 2, clears range 0's frontier 0. Range 2
// alone (lowest deferred column 8) passes against range 1.
func TestColorCascadesTwoSteps(t *testing.T) {
	//               r: 1  2  3  4  5  6  7  8  9 10 11 12 13 14 15 16
	cols := []int32{0, 1, 2, 3, 4, 2, 6, 7, 8, 9, 10, 11, 6, 13, 14, 15}
	const n = 17
	rowPtr := make([]int32, n+1)
	for r := 2; r <= n; r++ {
		rowPtr[r] = int32(r - 1)
	}
	if split := partition.ByNNZ(rowPtr, 4); !slices.Equal(split.Start, []int32{0, 5, 9, 13}) {
		t.Fatalf("ByNNZ starts %v, want [0 5 9 13]", split.Start)
	}
	sc := color.Build(n, rowPtr, cols, 4, color.Options{})
	if !slices.Equal(sc.Part.Start, []int32{0, 5, 17, 17}) || !slices.Equal(sc.Part.End, []int32{5, 17, 17, 17}) ||
		!slices.Equal(sc.Frontier, []int32{0, 7, 17, 17}) {
		t.Fatalf("ranges %v–%v, frontiers %v; want [0 5 17 17]–[5 17 17 17], [0 7 17 17]", sc.Part.Start, sc.Part.End, sc.Frontier)
	}
	if sc.NumColors != 2 || sc.Deferred != 2 || math.Abs(sc.Busy-33.0/24) > 1e-12 {
		t.Fatalf("%d phases, %d deferred, busy %.4f; want 2, 2 (rows 5 and 6), 33/24", sc.NumColors, sc.Deferred, sc.Busy)
	}
	checkScheduleProperty(t, sc, "cascade", n, rowPtr, cols, 4)
}

// TestColorBandedFewColors: on a narrow band every nnz range is wider than
// the band, so none merges: two phases at any thread count, and each range
// but the first defers exactly the three elements of its first two rows
// (columns start−2 and start−1, then start−1).
func TestColorBandedFewColors(t *testing.T) {
	const n = 4000
	rowPtr, colIdx := band(n)
	for _, p := range []int{2, 4, 8, 16} {
		sc := color.Build(n, rowPtr, colIdx, p, color.Options{})
		if sc.NumColors != 2 || live(sc) != p || sc.Deferred != int64(3*(p-1)) {
			t.Errorf("p=%d: banded matrix scheduled as %d phases over %d ranges, %d deferred; want 2 over %d, %d",
				p, sc.NumColors, live(sc), sc.Deferred, p, 3*(p-1))
		}
		for tid := 1; tid < p; tid++ {
			if sc.Frontier[tid] != sc.Part.Start[tid]+2 {
				t.Errorf("p=%d: range %d starts at %d with frontier %d, want start+2", p, tid, sc.Part.Start[tid], sc.Frontier[tid])
			}
		}
	}
}

// band returns the strict-lower structure of a width-2 band: row r stores
// columns r−2 and r−1.
func band(n int) (rowPtr, colIdx []int32) {
	rowPtr = make([]int32, n+1)
	for r := 0; r < n; r++ {
		rowPtr[r] = int32(len(colIdx))
		for d := 2; d >= 1; d-- {
			if r-d >= 0 {
				colIdx = append(colIdx, int32(r-d))
			}
		}
	}
	rowPtr[n] = int32(len(colIdx))
	return rowPtr, colIdx
}

// TestColorSingleThread: p = 1 serializes everything — one range, one
// phase, nothing deferred.
func TestColorSingleThread(t *testing.T) {
	n, rowPtr, colIdx := lowerCSR(t, "consph", 0.004)
	sc := color.Build(n, rowPtr, colIdx, 1, color.Options{})
	if sc.NumColors != 1 || sc.Deferred != 0 || sc.Busy != 1 || sc.Frontier[0] != 0 {
		t.Fatalf("p=1: %d phases, %d deferred, busy %.2f, frontier %v", sc.NumColors, sc.Deferred, sc.Busy, sc.Frontier)
	}
	if err := sc.Part.Validate(n); err != nil {
		t.Fatal(err)
	}
}

// TestColorRCMShrinksColors: RCM reordering lowers the bandwidth, and that
// is what keeps the schedule parallel (the synergy with §V-D). The scrambled
// parabolic_fem merges ranges in natural order, where its phases keep about
// one thread busy, and keeps all p after RCM, where they keep most of the p
// threads busy.
func TestColorRCMShrinksColors(t *testing.T) {
	sp, err := gen.SpecByName("parabolic_fem")
	if err != nil {
		t.Fatal(err)
	}
	m, err := gen.Generate(sp, 0.012)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	const p = 8
	before := color.Build(s.N, s.RowPtr, s.ColIdx, p, color.Options{})

	perm, err := reorder.RCM(m)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.FromCOO(rm)
	if err != nil {
		t.Fatal(err)
	}
	after := color.Build(sr.N, sr.RowPtr, sr.ColIdx, p, color.Options{})
	if live(before) >= p || live(after) != p {
		t.Fatalf("RCM took the schedule from %d to %d ranges, want < %d to %d", live(before), live(after), p, p)
	}
	if before.Busy > 1.5 || after.Busy < p/2 {
		t.Fatalf("RCM took the busy threads from %.2f to %.2f, want ≤ 1.5 to ≥ %d", before.Busy, after.Busy, p/2)
	}
}

// TestColorVerifyRejectsConflicts: Verify is the proof the schedule is
// race-free, so it must refuse a schedule that breaks its one comparison —
// here three ranges of a width-2 band, [0,10), [10,11) and [11,64), where
// range 2 defers column 9, below range 1's frontier 11, so both would write
// y[9] and y[10] in phase 2 — a frontier set too early, which would let
// phase 1 write below the range's start, and a deferring schedule that
// claims one phase.
func TestColorVerifyRejectsConflicts(t *testing.T) {
	const n = 64
	rowPtr, colIdx := band(n)
	sc := color.Build(n, rowPtr, colIdx, 2, color.Options{})
	if err := sc.Verify(rowPtr, colIdx); err != nil {
		t.Fatal(err)
	}
	narrow := &color.Schedule{P: 3, NumColors: 2, Frontier: []int32{0, 11, 13},
		Part: &partition.RowPartition{Start: []int32{0, 10, 11}, End: []int32{10, 11, 64}}}
	if err := narrow.Verify(rowPtr, colIdx); err == nil {
		t.Fatal("Verify accepted a range deferring column 9 below the previous frontier 11")
	}
	narrow.Part.End[1], narrow.Part.Start[2], narrow.Frontier[1], narrow.Frontier[2] = 40, 40, 12, 42
	if err := narrow.Verify(rowPtr, colIdx); err != nil {
		t.Fatalf("Verify refused [0,10), [10,40), [40,64): %v", err)
	}
	narrow.Frontier[2] = 41
	if err := narrow.Verify(rowPtr, colIdx); err == nil {
		t.Fatal("Verify accepted a frontier one row early")
	}
	narrow.Frontier[2], narrow.NumColors = 42, 1
	if err := narrow.Verify(rowPtr, colIdx); err == nil {
		t.Fatal("Verify accepted deferred elements in a one-phase schedule")
	}
}

// TestColorMoreThreadsThanRows: the trailing empty ranges must keep the
// schedule valid when p exceeds the row count.
func TestColorMoreThreadsThanRows(t *testing.T) {
	rowPtr := []int32{0, 0, 1, 2, 4, 5}
	colIdx := []int32{0, 1, 0, 2, 3}
	sc := color.Build(5, rowPtr, colIdx, 16, color.Options{})
	if err := sc.Part.Validate(5); err != nil {
		t.Fatal(err)
	}
	checkScheduleProperty(t, sc, "tiny", 5, rowPtr, colIdx, 16)
}
