package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// The comparator-sort construction of the conflict index that index.go and
// localvec.go replaced, kept as their oracle: append every below-start column
// and sort-dedup it, sort the (Vid, Idx) pairs by (Idx, Vid), then sort each
// worker slice by (Vid, Idx).

// touchedColumnsReference is TouchedColumns by append and sortDedup.
func touchedColumnsReference(s *SSS, part *partition.RowPartition) [][]int32 {
	perThread := make([][]int32, part.P())
	for tid := range perThread {
		startT := part.Start[tid]
		var touched []int32
		for r := startT; r < part.End[tid]; r++ {
			for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
				if c := s.ColIdx[j]; c < startT {
					touched = append(touched, c)
				}
			}
		}
		perThread[tid] = sortDedup(touched)
	}
	return perThread
}

// sortDedup sorts ascending and removes duplicates in place.
func sortDedup(v []int32) []int32 {
	slices.Sort(v)
	return slices.Compact(v)
}

// indexReference is the (Idx, Vid)-sorted conflict index by sort.Slice.
func indexReference(touched [][]int32) []IndexEntry {
	var index []IndexEntry
	for t, cols := range touched {
		for _, c := range cols {
			index = append(index, IndexEntry{Vid: int32(t), Idx: c})
		}
	}
	sort.Slice(index, func(a, b int) bool {
		if index[a].Idx != index[b].Idx {
			return index[a].Idx < index[b].Idx
		}
		return index[a].Vid < index[b].Vid
	})
	return index
}

// groupByVidReference sorts each worker slice by (Vid, Idx) with sort.Slice.
func groupByVidReference(index []IndexEntry, split []int32) []IndexEntry {
	out := slices.Clone(index)
	for w := 0; w+1 < len(split); w++ {
		s := out[split[w]:split[w+1]]
		sort.Slice(s, func(a, b int) bool {
			if s[a].Vid != s[b].Vid {
				return s[a].Vid < s[b].Vid
			}
			return s[a].Idx < s[b].Idx
		})
	}
	return out
}

func TestSortDedup(t *testing.T) {
	got := sortDedup([]int32{5, 1, 5, 3, 1, 1, 9})
	want := []int32{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("sortDedup = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sortDedup = %v, want %v", got, want)
		}
	}
	if out := sortDedup(nil); len(out) != 0 {
		t.Fatalf("sortDedup(nil) = %v", out)
	}
}

// genSuiteSSS generates every internal/gen matrix at a small scale.
func genSuiteSSS(t *testing.T) (names []string, mats []*SSS) {
	t.Helper()
	for _, suite := range [][]gen.Spec{gen.PaperSuite, gen.HubSuite, gen.ScatterSuite} {
		for _, sp := range suite {
			m, err := gen.Generate(sp, 0.01)
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
	return names, mats
}

// TestConflictIndexMatchesSortReference holds the bitset and counting-pass
// construction to the comparator-sort oracle: the touched columns, the
// (Idx, Vid) index, the worker split and the reduction order, entry for entry.
func TestConflictIndexMatchesSortReference(t *testing.T) {
	names, mats := genSuiteSSS(t)
	for _, p := range []int{1, 2, 3, 4, 8, 16} {
		pool := parallel.NewPool(p)
		for i, s := range mats {
			name := fmt.Sprintf("%s/p=%d", names[i], p)
			part := partition.ByNNZ(s.RowPtr, p)
			touched := TouchedColumns(s, part, pool)
			wantTouched := touchedColumnsReference(s, part)
			for tid := range wantTouched {
				if !slices.Equal(touched[tid], wantTouched[tid]) {
					t.Fatalf("%s: thread %d touches %d columns, reference %d (or their order differs)",
						name, tid, len(touched[tid]), len(wantTouched[tid]))
				}
			}
			lv := NewLocalVectors(s.N, part, Indexed, touched)
			want := indexReference(wantTouched)
			if !slices.Equal(lv.Index(), want) {
				t.Fatalf("%s: index of %d entries differs from the sorted reference of %d", name, lv.IndexLen(), len(want))
			}
			if split := splitIndex(want, p); !slices.Equal(lv.redSplit, split) {
				t.Fatalf("%s: worker split %v, reference %v", name, lv.redSplit, split)
			}
			if !slices.Equal(lv.redEntries, groupByVidReference(want, lv.redSplit)) {
				t.Fatalf("%s: reduction order differs from the per-worker (Vid, Idx) sort", name)
			}
			// CSX-Sym's loader hands over each thread's columns in map order.
			for _, cols := range touched {
				slices.Reverse(cols)
			}
			if back := NewLocalVectors(s.N, part, Indexed, touched); !slices.Equal(back.redEntries, lv.redEntries) {
				t.Fatalf("%s: columns in descending order give another reduction order", name)
			}
		}
		pool.Close()
	}
}

// TestConflictIndexDensityCountsTouchedColumns holds the density's counting
// pass to the columns TouchedColumns reads back.
func TestConflictIndexDensityCountsTouchedColumns(t *testing.T) {
	names, mats := genSuiteSSS(t)
	for _, p := range []int{1, 2, 3, 4, 8} {
		pool := parallel.NewPool(p)
		for i, s := range mats {
			part := partition.ByNNZ(s.RowPtr, p)
			var want, region int64
			for tid, cols := range TouchedColumns(s, part, pool) {
				want += int64(len(cols))
				region += int64(part.Start[tid])
			}
			entries, size, _ := ConflictIndexDensity(s, p)
			if entries != want || size != region {
				t.Errorf("%s/p=%d: density counts %d entries over %d, TouchedColumns %d over %d",
					names[i], p, entries, size, want, region)
			}
		}
		pool.Close()
	}
}
