package matrix

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// normalizeReference is Normalize as a stable comparison sort: entries
// sharing a coordinate keep their input order and are summed left to right.
func normalizeReference(m *COO) *COO {
	perm := make([]int, m.NNZ())
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		i, j := perm[a], perm[b]
		if m.RowIdx[i] != m.RowIdx[j] {
			return m.RowIdx[i] < m.RowIdx[j]
		}
		return m.ColIdx[i] < m.ColIdx[j]
	})
	out := &COO{Rows: m.Rows, Cols: m.Cols, Symmetric: m.Symmetric, Skew: m.Skew}
	for _, k := range perm {
		r, c, v := m.RowIdx[k], m.ColIdx[k], m.Val[k]
		if n := len(out.Val); n > 0 && out.RowIdx[n-1] == r && out.ColIdx[n-1] == c {
			out.Val[n-1] += v
			continue
		}
		out.RowIdx, out.ColIdx, out.Val = append(out.RowIdx, r), append(out.ColIdx, c), append(out.Val, v)
	}
	return out
}

// randomCOO draws nnz entries of a rows×cols matrix from at most distinct
// coordinates, so small values of distinct force duplicates. Values span many
// magnitudes: a sum taken in another order rounds differently.
func randomCOO(rng *rand.Rand, rows, cols, nnz, distinct int, symmetric, skew bool) *COO {
	m := &COO{Rows: rows, Cols: cols, Symmetric: symmetric, Skew: skew}
	type rc struct{ r, c int32 }
	pool := make([]rc, distinct)
	for i := range pool {
		r, c := int32(rng.Intn(rows)), int32(rng.Intn(cols))
		if symmetric && c > r {
			r, c = c, r
		}
		pool[i] = rc{r, c}
	}
	for k := 0; k < nnz; k++ {
		p := pool[rng.Intn(distinct)]
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
		if skew && p.r == p.c {
			v = 0
		}
		m.RowIdx, m.ColIdx, m.Val = append(m.RowIdx, p.r), append(m.ColIdx, p.c), append(m.Val, v)
	}
	return m
}

func TestNormalizeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	shapes := []struct {
		name                      string
		rows, cols, nnz, distinct int
	}{
		{"empty", 5, 5, 0, 1},
		{"single entry", 9, 9, 1, 1},
		{"one coordinate", 9, 9, 40, 1},
		{"dense duplicates", 6, 7, 500, 30},
		{"empty rows", 1000, 1000, 60, 50},
		{"one row", 1, 5000, 300, 200},
		{"one column", 5000, 1, 300, 200},
		{"rows far beyond nnz", math.MaxInt32, math.MaxInt32, 200, 150},
		{"sparse", 3000, 2000, 20000, 15000},
		{"past one digit per index", 1 << 13, 1 << 13, 30000, 30000},
	}
	for _, sh := range shapes {
		for _, kind := range []string{"general", "symmetric", "skew"} {
			if kind != "general" && sh.rows != sh.cols {
				continue
			}
			name := sh.name + "/" + kind
			m := randomCOO(rng, sh.rows, sh.cols, sh.nnz, sh.distinct, kind != "general", kind == "skew")
			want := normalizeReference(m)
			if got := m.Normalize(); got != m {
				t.Fatalf("%s: Normalize did not return its receiver", name)
			}
			if err := sameCOO(m, want); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !m.IsNormalized() {
				t.Fatalf("%s: not normalized after Normalize", name)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			again := m.Clone()
			if allocs := testing.AllocsPerRun(5, func() { again.Normalize() }); allocs != 0 {
				t.Errorf("%s: normalizing a normalized matrix allocates %.0f times", name, allocs)
			}
			if err := sameCOO(again, want); err != nil {
				t.Fatalf("%s: second Normalize changed the matrix: %v", name, err)
			}
		}
	}
}

// TestNormalizeScratchIgnoresShape: the sort's memory follows the entry
// count, not the declared dimensions.
func TestNormalizeScratchIgnoresShape(t *testing.T) {
	m := &COO{Rows: math.MaxInt32, Cols: math.MaxInt32,
		RowIdx: []int32{math.MaxInt32 - 1, 0, math.MaxInt32 - 1}, ColIdx: []int32{0, math.MaxInt32 - 1, 0}, Val: []float64{1, 2, 3}}
	_, size := allocated(func() { m.Clone().Normalize() })
	if size > 1<<16 {
		t.Errorf("normalizing 3 entries of a %dx%d matrix allocated %d bytes", m.Rows, m.Cols, size)
	}
	m.Normalize()
	if m.NNZ() != 2 || m.RowIdx[0] != 0 || m.Val[1] != 4 {
		t.Errorf("got %v %v %v", m.RowIdx, m.ColIdx, m.Val)
	}
}

// TestNormalizeOutOfShapeCoordinates: Normalize sorts what it is given, the
// signed order included; Validate is what rejects it.
func TestNormalizeOutOfShapeCoordinates(t *testing.T) {
	m := &COO{Rows: 2, Cols: 2,
		RowIdx: []int32{5, -3, math.MaxInt32, math.MinInt32, -3}, ColIdx: []int32{math.MinInt32, 7, math.MaxInt32, 0, 7}, Val: []float64{1, 2, 3, 4, 5}}
	want := normalizeReference(m)
	if err := sameCOO(m.Normalize(), want); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteRejectsBadPermutation(t *testing.T) {
	m := NewCOO(3, 3, 1)
	m.Add(1, 1, 1)
	for _, perm := range [][]int32{{0, 1}, {0, 1, 3}, {0, -1, 2}} {
		if _, err := m.Permute(perm); err == nil {
			t.Errorf("Permute(%v) accepted", perm)
		}
	}
}
