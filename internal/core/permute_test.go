package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/reorder"
)

// poissonSSS is the 5-point Laplacian on a side×side grid.
func poissonSSS(t *testing.T, side int) *SSS {
	t.Helper()
	m := matrix.NewCOO(side*side, side*side, 3*side*side)
	m.Symmetric = true
	for i := range side {
		for j := range side {
			r := i*side + j
			m.Add(r, r, 4)
			if j > 0 {
				m.Add(r, r-1, -1)
			}
			if i > 0 {
				m.Add(r, r-side, -1)
			}
		}
	}
	s, err := FromCOO(m.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sssBitsDiffer names the first field in which a and b differ, comparing
// values by their bits and telling a nil array from an empty one; "" when
// they are the same matrix.
func sssBitsDiffer(a, b *SSS) string {
	floats := func(x, y []float64) bool {
		return (x == nil) == (y == nil) && slices.EqualFunc(x, y, func(u, v float64) bool {
			return math.Float64bits(u) == math.Float64bits(v)
		})
	}
	switch {
	case a.N != b.N || a.Kind != b.Kind:
		return fmt.Sprintf("N, Kind %d, %s against %d, %s", a.N, a.Kind, b.N, b.Kind)
	case !slices.Equal(a.RowPtr, b.RowPtr):
		return "RowPtr"
	case !slices.Equal(a.ColIdx, b.ColIdx):
		return "ColIdx"
	case !floats(a.DValues, b.DValues):
		return "DValues"
	case !floats(a.Val, b.Val):
		return "Val"
	case !floats(a.UVal, b.UVal):
		return "UVal"
	}
	return ""
}

// TestPermuteMatchesCOOPath holds SSS.Permute to the COO round trip it
// replaces — COO.Permute, then FromCOO or FromCOOStructural — bit for bit, on
// every internal/gen matrix at scale 0.003 and a Poisson grid, each as a
// symmetric, skew and structural matrix, under RCM, a random permutation,
// the identity and the reversal; the result validates, and the inverse
// permutation gives the matrix back. Some rows must pass the insertion
// sort's 32 entries (the power-law matrices' hubs do).
func TestPermuteMatchesCOOPath(t *testing.T) {
	var names []string
	var mats []*SSS
	for _, suite := range [][]gen.Spec{gen.PaperSuite, gen.HubSuite, gen.ScatterSuite} {
		for _, sp := range suite {
			m, err := gen.Generate(sp, 0.003)
			if err != nil {
				t.Fatal(err)
			}
			s, err := FromCOO(m)
			if err != nil {
				t.Fatal(err)
			}
			names, mats = append(names, sp.Name), append(mats, s)
		}
	}
	names, mats = append(names, "poisson-40"), append(mats, poissonSSS(t, 40))
	rng := rand.New(rand.NewSource(44))
	longest := int32(0)
	for i, sym := range mats {
		n := sym.N
		rcm, err := reorder.RCM(sym.ToCOO(true))
		if err != nil {
			t.Fatal(err)
		}
		random, identity, reversal := make([]int32, n), make([]int32, n), make([]int32, n)
		for k, p := range rng.Perm(n) {
			random[k], identity[k], reversal[k] = int32(p), int32(k), int32(n-1-k)
		}
		for _, kind := range []SymKind{Sym, Skew, Structural} {
			s := asKind(t, sym, kind)
			m := s.ToCOO(true)
			for pi, perm := range [][]int32{rcm, random, identity, reversal} {
				label := fmt.Sprintf("%s %s perm %d", names[i], kind, pi)
				pm, err := m.Permute(perm)
				if err != nil {
					t.Fatal(err)
				}
				from := FromCOO
				if kind == Structural {
					from = FromCOOStructural
				}
				want, err := from(pm)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Permute(perm)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if d := sssBitsDiffer(got, want); d != "" {
					t.Fatalf("%s: %s differs from the COO path's", label, d)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for r := range n {
					longest = max(longest, got.RowPtr[r+1]-got.RowPtr[r])
				}
				inv := make([]int32, n)
				for old, p := range perm {
					inv[p] = int32(old)
				}
				back, err := got.Permute(inv)
				if err != nil {
					t.Fatal(err)
				}
				if d := sssBitsDiffer(back, s); d != "" {
					t.Fatalf("%s: the inverse gives back a different %s", label, d)
				}
			}
		}
	}
	if longest <= 32 {
		t.Errorf("the longest permuted row has %d entries: the packed-key sort never ran", longest)
	}
}

// TestPermuteRejectsANonPermutation: a short perm, an index out of range and
// two old indices sharing a new one are errors, not a malformed matrix.
func TestPermuteRejectsANonPermutation(t *testing.T) {
	s := poissonSSS(t, 3)
	for _, perm := range [][]int32{
		{0, 1, 2},
		{0, 1, 2, 3, 4, 5, 6, 7, 9},
		{0, 1, 2, 3, 4, 5, 6, 7, -1},
		{0, 1, 2, 3, 4, 5, 6, 7, 7},
	} {
		if _, err := s.Permute(perm); err == nil {
			t.Errorf("Permute(%v) accepted", perm)
		}
	}
}

// TestPermuteAllocates: on a symmetric, a skew and a structural matrix
// Permute allocates the permuted matrix and the permutation check's seen
// flags, +10 %: no negated copy of Val for Skew, no copy of the diagonal it
// overwrites, no second placement of the columns for Structural's UVal.
func TestPermuteAllocates(t *testing.T) {
	sym := poissonSSS(t, 60)
	n := sym.N
	reversal := make([]int32, n)
	for k := range reversal {
		reversal[k] = int32(n - 1 - k)
	}
	for _, kind := range []SymKind{Sym, Skew, Structural} {
		s := asKind(t, sym, kind)
		bound := int64(8*len(s.DValues)+4*(n+1)+12*len(s.Val)+8*len(s.UVal)+n) * 11 / 10
		got := int64(math.MaxInt64) // the least of three readings
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := s.Permute(reversal)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			got = min(got, int64(after.TotalAlloc-before.TotalAlloc))
		}
		if got > bound {
			t.Errorf("%s: Permute allocated %d B, over the %d B bound", kind, got, bound)
		}
	}
}
