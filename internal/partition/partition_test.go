package partition

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func rowPtrOf(counts []int32) []int32 {
	ptr := make([]int32, len(counts)+1)
	for i, c := range counts {
		ptr[i+1] = ptr[i] + c
	}
	return ptr
}

func TestUniformCoversAllRows(t *testing.T) {
	for _, n := range []int{0, 1, 5, 24, 100} {
		for _, p := range []int{1, 2, 7, 24, 130} {
			rp := Uniform(n, p)
			if err := rp.Validate(n); err != nil {
				t.Fatalf("Uniform(%d,%d): %v", n, p, err)
			}
			// Sizes differ by at most one.
			min, max := n+1, -1
			for i := 0; i < p; i++ {
				sz := int(rp.End[i] - rp.Start[i])
				if sz < min {
					min = sz
				}
				if sz > max {
					max = sz
				}
			}
			if max-min > 1 {
				t.Fatalf("Uniform(%d,%d): sizes differ by %d", n, p, max-min)
			}
		}
	}
}

func TestByNNZBalances(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	counts := make([]int32, 1000)
	for i := range counts {
		counts[i] = int32(rng.Intn(20))
	}
	ptr := rowPtrOf(counts)
	for _, p := range []int{1, 2, 4, 8, 16} {
		rp := ByNNZ(ptr, p)
		if err := rp.Validate(1000); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if imb := rp.Imbalance(ptr); imb > 1.25 {
			t.Errorf("p=%d: imbalance %.2f > 1.25", p, imb)
		}
	}
}

func TestByNNZHugeRow(t *testing.T) {
	// One row carries almost everything; partitioning must still cover all
	// rows and terminate.
	counts := []int32{1, 1, 1000, 1, 1}
	ptr := rowPtrOf(counts)
	rp := ByNNZ(ptr, 4)
	if err := rp.Validate(5); err != nil {
		t.Fatal(err)
	}
}

func TestByNNZMoreThreadsThanRows(t *testing.T) {
	ptr := rowPtrOf([]int32{3, 3, 3})
	rp := ByNNZ(ptr, 8)
	if err := rp.Validate(3); err != nil {
		t.Fatal(err)
	}
}

func TestOwner(t *testing.T) {
	ptr := rowPtrOf([]int32{2, 2, 2, 2, 2, 2, 2, 2})
	rp := ByNNZ(ptr, 4)
	for i := 0; i < rp.P(); i++ {
		for r := rp.Start[i]; r < rp.End[i]; r++ {
			if got := rp.Owner(r); got != i {
				t.Fatalf("Owner(%d) = %d, want %d", r, got, i)
			}
		}
	}
}

// Property: every ByNNZ partition is a valid ordered cover of [0, n) and
// Owner agrees with the ranges.
func TestQuickByNNZValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		p := 1 + rng.Intn(40)
		counts := make([]int32, n)
		for i := range counts {
			counts[i] = int32(rng.Intn(10))
		}
		ptr := rowPtrOf(counts)
		rp := ByNNZ(ptr, p)
		if rp.Validate(n) != nil {
			return false
		}
		for k := 0; k < 20; k++ {
			r := int32(rng.Intn(n))
			o := rp.Owner(r)
			if r < rp.Start[o] || r >= rp.End[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyChunksAreWellFormed pins the shape of the empty chunks both
// strategies emit when threads outnumber rows: every empty chunk has
// Start == End, carries zero nonzeros, and sits at a position consistent
// with the ordered cover — the invariants the kernels' per-thread loops
// and the reduction phases rely on to do nothing gracefully.
func TestEmptyChunksAreWellFormed(t *testing.T) {
	check := func(name string, rp *RowPartition, n int, ptr []int32) {
		t.Helper()
		if err := rp.Validate(n); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		empty := 0
		for i := 0; i < rp.P(); i++ {
			if rp.Start[i] == rp.End[i] {
				empty++
				if nnz := rp.NNZOf(ptr, i); nnz != 0 {
					t.Errorf("%s: empty chunk %d claims %d nonzeros", name, i, nnz)
				}
			}
		}
		if want := rp.P() - n; n < rp.P() && empty < want {
			t.Errorf("%s: %d chunks for %d rows but only %d empty (want ≥ %d)",
				name, rp.P(), n, empty, want)
		}
	}

	for _, tc := range []struct{ n, p int }{
		{0, 1}, {0, 4}, {1, 8}, {3, 8}, {5, 130},
	} {
		counts := make([]int32, tc.n)
		for i := range counts {
			counts[i] = int32(i%3 + 1)
		}
		ptr := rowPtrOf(counts)
		check("Uniform", Uniform(tc.n, tc.p), tc.n, ptr)
		check("ByNNZ", ByNNZ(ptr, tc.p), tc.n, ptr)
	}

	// Zero-row chunks can also appear mid-sequence when interior rows are
	// empty and one row dwarfs the rest.
	ptr := rowPtrOf([]int32{0, 0, 1000, 0, 0})
	check("ByNNZ/hollow", ByNNZ(ptr, 4), 5, ptr)
}

// TestByNNZZeroMatrix: a matrix with rows but no stored entries must still
// partition into a valid cover (targets are all zero).
func TestByNNZZeroMatrix(t *testing.T) {
	ptr := rowPtrOf(make([]int32, 7))
	for _, p := range []int{1, 3, 7, 20} {
		rp := ByNNZ(ptr, p)
		if err := rp.Validate(7); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if imb := rp.Imbalance(ptr); imb != 1 {
			t.Errorf("p=%d: Imbalance on all-zero matrix = %v, want 1", p, imb)
		}
	}
}

// TestOwnerWithEmptyChunks: Owner must return a chunk that actually contains
// the row even when empty chunks surround it.
func TestOwnerWithEmptyChunks(t *testing.T) {
	ptr := rowPtrOf([]int32{9, 9, 9})
	rp := ByNNZ(ptr, 8) // 5 trailing empty chunks
	for r := int32(0); r < 3; r++ {
		o := rp.Owner(r)
		if r < rp.Start[o] || r >= rp.End[o] {
			t.Errorf("Owner(%d) = chunk %d [%d,%d) which does not contain it",
				r, o, rp.Start[o], rp.End[o])
		}
	}
}

func TestValidateRejectsBadPartitions(t *testing.T) {
	bad := &RowPartition{Start: []int32{0, 5}, End: []int32{4, 10}} // gap
	if err := bad.Validate(10); err == nil {
		t.Fatal("Validate accepted gapped partition")
	}
	bad2 := &RowPartition{Start: []int32{1}, End: []int32{10}} // wrong start
	if err := bad2.Validate(10); err == nil {
		t.Fatal("Validate accepted partition not starting at 0")
	}
	bad3 := &RowPartition{Start: []int32{0}, End: []int32{9}} // wrong end
	if err := bad3.Validate(10); err == nil {
		t.Fatal("Validate accepted partition not ending at n")
	}
}

func TestNNZOf(t *testing.T) {
	ptr := rowPtrOf([]int32{5, 0, 5, 10})
	rp := ByNNZ(ptr, 2)
	total := int64(0)
	for i := 0; i < rp.P(); i++ {
		total += rp.NNZOf(ptr, i)
	}
	if total != 20 {
		t.Fatalf("NNZOf sums to %d, want 20", total)
	}
}
