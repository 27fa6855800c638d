package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/partition"
)

func TestSplitIndexProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		p := 1 + rng.Intn(16)
		index := make([]IndexEntry, n)
		idx := int32(0)
		for i := range index {
			if rng.Intn(3) == 0 {
				idx++
			}
			index[i] = IndexEntry{Vid: int32(rng.Intn(p)), Idx: idx}
		}
		bounds := splitIndex(index, p)
		if len(bounds) != p+1 || bounds[0] != 0 || int(bounds[p]) != n {
			return false
		}
		for w := 1; w <= p; w++ {
			if bounds[w] < bounds[w-1] {
				return false
			}
			b := bounds[w]
			if b > 0 && int(b) < n && index[b].Idx == index[b-1].Idx {
				return false // an Idx value straddles a boundary
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalVectorsLayout(t *testing.T) {
	part := &partition.RowPartition{Start: []int32{0, 10, 25}, End: []int32{10, 25, 40}}
	lvNaive := NewLocalVectors(40, part, Naive, nil)
	for t2, v := range lvNaive.Vecs {
		if len(v) != 40 {
			t.Fatalf("naive local %d has length %d", t2, len(v))
		}
	}
	lvEff := NewLocalVectors(40, part, EffectiveRanges, nil)
	wantLens := []int{0, 10, 25}
	for t2, v := range lvEff.Vecs {
		if len(v) != wantLens[t2] {
			t.Fatalf("effective local %d has length %d, want %d", t2, len(v), wantLens[t2])
		}
	}
	if lvEff.EffectiveRegionSize() != 35 {
		t.Fatalf("EffectiveRegionSize = %d, want 35", lvEff.EffectiveRegionSize())
	}
}

func TestLocalVectorsIndexedReduceExact(t *testing.T) {
	part := &partition.RowPartition{Start: []int32{0, 4}, End: []int32{4, 8}}
	touched := [][]int32{nil, {1, 3}}
	lv := NewLocalVectors(8, part, Indexed, touched)
	if lv.IndexLen() != 2 {
		t.Fatalf("IndexLen = %d", lv.IndexLen())
	}
	if d := float64(lv.IndexLen()) / float64(lv.EffectiveRegionSize()); d != 0.5 {
		t.Fatalf("density = %g, want 0.5 (2 of 4)", d)
	}
	lv.Vecs[1][1] = 10
	lv.Vecs[1][3] = 20
	y := []float64{1, 1, 1, 1, 0, 0, 0, 0}
	pool := parallel.NewPool(2)
	defer pool.Close()
	pool.RunPhaseList(&parallel.PhaseList{Phases: lv.ReducePhases("test", nil, &y, nil, 1)})
	want := []float64{1, 11, 1, 21, 0, 0, 0, 0}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
	// Consumed elements must be re-zeroed.
	if lv.Vecs[1][1] != 0 || lv.Vecs[1][3] != 0 {
		t.Fatalf("locals not re-zeroed: %v", lv.Vecs[1])
	}
}

func TestFromCOOErrors(t *testing.T) {
	g := matrix.NewCOO(3, 3, 0)
	if _, err := FromCOO(g); err == nil {
		t.Fatal("FromCOO accepted non-symmetric COO")
	}
}

func TestSSSToCOORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomSymmetric(t, rng, 120, 3)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	back := s.ToCOO(false)
	if back.NNZ() != m.NNZ() {
		t.Fatalf("round trip nnz %d, want %d", back.NNZ(), m.NNZ())
	}
	for k := range m.Val {
		if back.RowIdx[k] != m.RowIdx[k] || back.ColIdx[k] != m.ColIdx[k] || back.Val[k] != m.Val[k] {
			t.Fatalf("triplet %d differs", k)
		}
	}
}

func TestSSSMissingDiagonalStoredAsZero(t *testing.T) {
	m := matrix.NewCOO(3, 3, 2)
	m.Symmetric = true
	m.Add(0, 0, 5)
	m.Add(2, 1, 1) // rows 1, 2 have no diagonal entry
	m.Normalize()
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	if s.DValues[0] != 5 || s.DValues[1] != 0 || s.DValues[2] != 0 {
		t.Fatalf("DValues = %v", s.DValues)
	}
	if got := s.ToCOO(true).NNZ(); got != 4 { // 3 diagonal slots + 1 lower
		t.Fatalf("ToCOO(true) nnz = %d, want 4", got)
	}
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	s.MulVec(x, y)
	if y[0] != 5 || y[1] != 3 || y[2] != 2 {
		t.Fatalf("y = %v", y)
	}
}

func TestSSSBytesEquation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomSymmetric(t, rng, 256, 4)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(8*s.N) + int64(12*len(s.Val)) + int64(4*(s.N+1))
	if got := s.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

func TestReductionMethodString(t *testing.T) {
	for m, want := range map[ReductionMethod]string{
		Naive: "naive", EffectiveRanges: "effective-ranges",
		Indexed: "indexed", Colored: "colored", ReductionMethod(99): "ReductionMethod(99)",
	} {
		if got := m.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(m), got, want)
		}
	}
}
