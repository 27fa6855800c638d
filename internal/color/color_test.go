package color_test

import (
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

// writeSet recomputes block b's write set independently of the package: its
// own row range plus every column below the range its rows reference.
func writeSet(sc *color.Schedule, rowPtr, colIdx []int32, b int) map[int32]bool {
	ws := make(map[int32]bool)
	lo, hi := sc.Part.Start[b], sc.Part.End[b]
	for r := lo; r < hi; r++ {
		ws[r] = true
		for j := rowPtr[r]; j < rowPtr[r+1]; j++ {
			if c := colIdx[j]; c < lo {
				ws[c] = true
			}
		}
	}
	return ws
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

// TestColorScheduleProperty is the coloring-validity property test: for every
// suite matrix in natural and RCM order and several thread counts, the
// schedule must pass Verify, every pair of same-color blocks must have
// disjoint write sets (verified by claiming rows in a bitmap), and the
// per-color assignment must execute every block exactly once under its own
// color. At 6000 rows a p = 8 block (≈ 94 rows) is wider than the RCM
// bandwidth of the 2-D stencils and the scattered band, so their RCM order
// must keep at least two blocks per thread; thermal2's 3-D band is wider
// than a block, and its blocks must still number at least 2p.
func TestColorScheduleProperty(t *testing.T) {
	banded := map[string]bool{"parabolic_fem": true, "G3_circuit": true, "thermal2": true, "scattered-band": true}
	for _, c := range suiteOrders(t, 6000) {
		s := c.s
		for _, p := range []int{2, 4, 8} {
			name := c.name + "/" + c.order
			sc := color.Build(s.N, s.RowPtr, s.ColIdx, p, color.Options{})
			if err := sc.Verify(s.RowPtr, s.ColIdx); err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			checkScheduleProperty(t, sc, name, s.N, s.RowPtr, s.ColIdx, p)
			if c.order == "rcm" && banded[c.name] && sc.NumBlocks < 2*p {
				t.Errorf("%s p=%d: %d blocks, want ≥ %d on a banded order", name, p, sc.NumBlocks, 2*p)
			}
		}
	}
}

func checkScheduleProperty(t *testing.T, sc *color.Schedule, name string, n int, rowPtr, colIdx []int32, p int) {
	t.Helper()
	if err := sc.Part.Validate(n); err != nil {
		t.Fatalf("%s p=%d: %v", name, p, err)
	}
	if sc.NumColors < 1 || sc.NumBlocks < 1 {
		t.Fatalf("%s p=%d: degenerate schedule: %d colors, %d blocks",
			name, p, sc.NumColors, sc.NumBlocks)
	}

	// Assignment: every block exactly once, under its own color.
	seen := make([]int, sc.NumBlocks)
	for c, perThread := range sc.Assign {
		if len(perThread) != p {
			t.Fatalf("%s p=%d: color %d has %d thread lists", name, p, c, len(perThread))
		}
		for _, blocks := range perThread {
			for _, b := range blocks {
				seen[b]++
				if int(sc.Color[b]) != c {
					t.Fatalf("%s p=%d: block %d (color %d) scheduled in phase %d",
						name, p, b, sc.Color[b], c)
				}
			}
		}
	}
	for b, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("%s p=%d: block %d scheduled %d times", name, p, b, cnt)
		}
	}

	// Write-set disjointness within each color: claim every written row
	// in a bitmap; a second claim by a different block is a conflict the
	// coloring was supposed to prevent.
	claimed := make([]int32, n)
	for c := 0; c < sc.NumColors; c++ {
		for i := range claimed {
			claimed[i] = -1
		}
		for b := 0; b < sc.NumBlocks; b++ {
			if int(sc.Color[b]) != c {
				continue
			}
			for r := range writeSet(sc, rowPtr, colIdx, b) {
				if o := claimed[r]; o >= 0 {
					t.Fatalf("%s p=%d color %d: blocks %d and %d both write row %d",
						name, p, c, o, b, r)
				}
				claimed[r] = int32(b)
			}
		}
	}
}

// TestColorBandedFewColors: on a narrow-band matrix every carved block is
// wider than the band, so none merges: two colors over all p·8 blocks at any
// thread count.
func TestColorBandedFewColors(t *testing.T) {
	const n = 4000
	rowPtr := make([]int32, n+1)
	var colIdx []int32
	for r := 0; r < n; r++ {
		rowPtr[r] = int32(len(colIdx))
		for d := 2; d >= 1; d-- {
			if r-d >= 0 {
				colIdx = append(colIdx, int32(r-d))
			}
		}
	}
	rowPtr[n] = int32(len(colIdx))
	for _, p := range []int{2, 4, 8, 16} {
		sc := color.Build(n, rowPtr, colIdx, p, color.Options{})
		if sc.NumColors != 2 || sc.NumBlocks != 8*p {
			t.Errorf("p=%d: banded matrix scheduled as %d colors over %d blocks, want 2 over %d",
				p, sc.NumColors, sc.NumBlocks, 8*p)
		}
	}
}

// TestColorSingleThread: p = 1 serializes everything — one block, one color.
func TestColorSingleThread(t *testing.T) {
	n, rowPtr, colIdx := lowerCSR(t, "consph", 0.004)
	sc := color.Build(n, rowPtr, colIdx, 1, color.Options{})
	if sc.NumColors != 1 || sc.NumBlocks != 1 {
		t.Fatalf("p=1: %d colors, %d blocks", sc.NumColors, sc.NumBlocks)
	}
	if err := sc.Part.Validate(n); err != nil {
		t.Fatal(err)
	}
}

// TestColorRCMShrinksColors: RCM reordering lowers the bandwidth, and that
// is what lets the schedule keep its blocks (the synergy with §V-D). The
// scrambled parabolic_fem merges to fewer than two blocks per thread in
// natural order, where its phases keep about one thread busy, and keeps at
// least two after RCM, where they keep most of the p threads busy.
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
	if before.NumBlocks >= 2*p || after.NumBlocks < 2*p {
		t.Fatalf("RCM took the schedule from %d to %d blocks, want < %d to ≥ %d",
			before.NumBlocks, after.NumBlocks, 2*p, 2*p)
	}
	if before.Busy > 1.5 || after.Busy < p/2 {
		t.Fatalf("RCM took the busy threads from %.2f to %.2f, want ≤ 1.5 to ≥ %d", before.Busy, after.Busy, p/2)
	}
}

// TestColorVerifyRejectsConflicts: Verify is the proof the schedule is
// conflict-free, so it must fail on a schedule whose same-color blocks can
// write the same element — here a band of width 2 cut into one-row blocks,
// where row r's transpose write reaches row r−2 — and on colors that do not
// alternate.
func TestColorVerifyRejectsConflicts(t *testing.T) {
	const n = 64
	rowPtr := make([]int32, n+1)
	var colIdx []int32
	for r := 0; r < n; r++ {
		rowPtr[r] = int32(len(colIdx))
		for d := 2; d >= 1; d-- {
			if r-d >= 0 {
				colIdx = append(colIdx, int32(r-d))
			}
		}
	}
	rowPtr[n] = int32(len(colIdx))
	sc := color.Build(n, rowPtr, colIdx, 2, color.Options{})
	if err := sc.Verify(rowPtr, colIdx); err != nil {
		t.Fatal(err)
	}
	oneRow := &color.Schedule{P: 2, NumBlocks: n, NumColors: 2,
		Part: &partition.RowPartition{Start: make([]int32, n), End: make([]int32, n)}, Color: make([]int32, n)}
	for b := range n {
		oneRow.Part.Start[b], oneRow.Part.End[b], oneRow.Color[b] = int32(b), int32(b+1), int32(b%2)
	}
	if err := oneRow.Verify(rowPtr, colIdx); err == nil {
		t.Fatal("Verify accepted one-row blocks on a width-2 band")
	}
	sc.Color[1] = 0
	if err := sc.Verify(rowPtr, colIdx); err == nil {
		t.Fatal("Verify accepted two adjacent blocks of one color")
	}
}

// TestColorMoreThreadsThanRows: the block clamp must keep the schedule valid
// when p exceeds the row count (trailing blocks are empty).
func TestColorMoreThreadsThanRows(t *testing.T) {
	rowPtr := []int32{0, 0, 1, 2, 4, 5}
	colIdx := []int32{0, 1, 0, 2, 3}
	sc := color.Build(5, rowPtr, colIdx, 16, color.Options{})
	if err := sc.Part.Validate(5); err != nil {
		t.Fatal(err)
	}
	seen := make([]int, sc.NumBlocks)
	for _, perThread := range sc.Assign {
		for _, blocks := range perThread {
			for _, b := range blocks {
				seen[b]++
			}
		}
	}
	for b, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("block %d scheduled %d times", b, cnt)
		}
	}
}
