package symspmv

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// TestReorderedCOOBuiltOnce: a reordered Matrix builds its COO form on first
// use, once, whichever of Stats, WriteMatrixMarket and Kernel(CSR) asks
// first from however many goroutines (run under -race), and that form is
// bitwise what COO.Permute makes of the source's.
func TestReorderedCOOBuiltOnce(t *testing.T) {
	a, err := GenerateSuiteMatrix("parabolic_fem", 0.004)
	if err != nil {
		t.Fatal(err)
	}
	r, perm, err := a.ReorderRCM()
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.fm.COO().Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	var wantFile bytes.Buffer
	if err := matrix.WriteMatrixMarket(&wantFile, want); err != nil {
		t.Fatal(err)
	}

	const callers = 6
	seen := make([]*matrix.COO, callers)
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch g % 3 {
			case 0:
				if got := r.Stats(); got != matrix.ComputeStats(want) {
					t.Errorf("Stats = %+v, want %+v", got, matrix.ComputeStats(want))
				}
			case 1:
				var b bytes.Buffer
				if err := r.WriteMatrixMarket(&b); err != nil || !bytes.Equal(b.Bytes(), wantFile.Bytes()) {
					t.Errorf("WriteMatrixMarket: %v, or its bytes differ from the permuted COO's", err)
				}
			case 2:
				k, err := r.Kernel(CSR, Threads(2))
				if err != nil {
					t.Error(err)
					return
				}
				k.Close()
			}
			seen[g] = r.fm.COO()
		}()
	}
	wg.Wait()
	got := seen[0]
	for g, c := range seen {
		if c != got {
			t.Fatalf("caller %d read a second COO form: it was built more than once", g)
		}
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if got.Rows != want.Rows || got.Symmetric != want.Symmetric || got.Skew != want.Skew ||
		!slices.Equal(got.RowIdx, want.RowIdx) || !slices.Equal(got.ColIdx, want.ColIdx) ||
		!slices.Equal(bits(got.Val), bits(want.Val)) {
		t.Fatal("the reordered COO form differs from COO.Permute's")
	}
}

// TestReorderRCMAllocates bounds what ReorderRCM allocates on the stencil
// analog: the permuted SSS, RCM's adjacency (degrees, pointers, both arcs of
// each stored entry, the fill cursor), its two order buffers, seen bits and
// the permutation, plus 10 %. The COO round trip it replaced — a permuted
// COO, Normalize's packed entries and a second SSS build — does not fit.
func TestReorderRCMAllocates(t *testing.T) {
	a, err := GenerateSuiteMatrix("parabolic_fem", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	n, lower := int64(a.N()), int64(len(a.fm.S.Val))
	sss := 8*n + 12*lower + 4*(n+1)
	rcm := 4*n + 4*(n+1) + 8*lower + 4*n + 2*4*n + n/8 + 4*n
	bound := (sss + rcm) * 11 / 10

	// The least of three readings: a goroutine left over from another test
	// can only add to one.
	got := int64(math.MaxInt64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, _, err = a.ReorderRCM()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got = min(got, int64(after.TotalAlloc-before.TotalAlloc))
	}
	if got > bound {
		t.Errorf("ReorderRCM allocated %d B on %d rows and %d lower entries, over the %d B bound (SSS %d + RCM %d, +10 %%)",
			got, n, lower, bound, sss, rcm)
	}
}
