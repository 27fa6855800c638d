package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// randomSkew builds a random skew-symmetric lower-stored COO: no diagonal,
// ~avgRow stored strict-lower entries per row.
func randomSkew(t testing.TB, rng *rand.Rand, n, avgRow int) *matrix.COO {
	t.Helper()
	m := matrix.NewCOO(n, n, n*avgRow)
	m.Symmetric, m.Skew = true, true
	for r := 1; r < n; r++ {
		for k := 0; k < avgRow; k++ {
			m.Add(r, rng.Intn(r), rng.NormFloat64())
		}
	}
	m.Normalize()
	if err := m.Validate(); err != nil {
		t.Fatalf("generated skew matrix invalid: %v", err)
	}
	return m
}

// randomStructural builds a general COO with a symmetric pattern but
// independent upper/lower values, plus a full diagonal.
func randomStructural(t testing.TB, rng *rand.Rand, n, avgRow int) *matrix.COO {
	t.Helper()
	m := matrix.NewCOO(n, n, n*(2*avgRow+1))
	for r := 0; r < n; r++ {
		m.Add(r, r, 1+rng.Float64())
		for k := 0; k < avgRow && r > 0; k++ {
			c := rng.Intn(r)
			m.Add(r, c, rng.NormFloat64())
			m.Add(c, r, rng.NormFloat64())
		}
	}
	m.Normalize()
	return m
}

// denseRef expands any COO (honoring Symmetric/Skew flags) to dense and
// multiplies — the kind-independent reference.
func denseRef(m *matrix.COO, x []float64) []float64 {
	n := m.Rows
	dense := make([]float64, n*n)
	for k := range m.Val {
		r, c, v := int(m.RowIdx[k]), int(m.ColIdx[k]), m.Val[k]
		dense[r*n+c] += v
		if m.Symmetric && r != c {
			if m.Skew {
				dense[c*n+r] -= v
			} else {
				dense[c*n+r] += v
			}
		}
	}
	y := make([]float64, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			y[r] += dense[r*n+c] * x[c]
		}
	}
	return y
}

// TestKindKernelsMatchReference: the serial and every supported parallel
// kernel over Skew and Structural matrices must match the dense reference.
func TestKindKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 5, 64, 257, 733} {
		for _, kind := range []SymKind{Skew, Structural} {
			var m *matrix.COO
			var s *SSS
			var err error
			if kind == Skew {
				m = randomSkew(t, rng, n, 4)
				s, err = FromCOO(m)
			} else {
				m = randomStructural(t, rng, n, 4)
				s, err = FromCOOStructural(m)
			}
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, kind, err)
			}
			if s.Kind != kind {
				t.Fatalf("n=%d: Kind = %s, want %s", n, s.Kind, kind)
			}
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want := denseRef(m, x)

			got := make([]float64, n)
			s.MulVec(x, got)
			if d := maxRelDiff(want, got); d > 1e-12 {
				t.Errorf("n=%d %s serial: differs from dense reference by %g", n, kind, d)
			}

			for _, p := range []int{1, 2, 3, 4, 8} {
				pool := parallel.NewPool(p)
				for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
					k := NewKernel(s, method, pool)
					y := make([]float64, n)
					k.MulVec(x, y)
					k.MulVec(x, y) // stale-local check, as in the Sym tests
					if d := maxRelDiff(want, y); d > 1e-12 {
						t.Errorf("n=%d %s p=%d method=%v: differs from dense reference by %g",
							n, kind, p, method, d)
					}
					y2 := make([]float64, n)
					dot := k.MulVecDot(x, y2)
					wantDot := 0.0
					for i := range y {
						if y[i] != y2[i] {
							t.Fatalf("n=%d %s p=%d method=%v: MulVecDot y differs at %d",
								n, kind, p, method, i)
						}
						wantDot += x[i] * y[i]
					}
					if d := relDiffScalar(dot, wantDot); d > 1e-12 {
						t.Errorf("n=%d %s p=%d method=%v: dot differs by %g", n, kind, p, method, d)
					}
				}
				pool.Close()
			}
		}
	}
}

func relDiffScalar(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if b > scale {
		scale = b
	} else if -b > scale {
		scale = -b
	}
	if scale < 1 {
		scale = 1
	}
	return d / scale
}

// TestKindGating: the pairings without kind-generalized bodies must be
// rejected with errors, not computed wrongly.
func TestKindGating(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s, err := FromCOO(randomSkew(t, rng, 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()

	k := NewKernel(s, Indexed, pool)
	x := make([]float64, 50*2)
	y := make([]float64, 50*2)
	if err := k.MulMat(x, y, 2); err == nil || !strings.Contains(err.Error(), "symmetric") {
		t.Errorf("MulMat over skew: err = %v, want kind rejection", err)
	}

	defer func() {
		if recover() == nil {
			t.Error("serial MulMat over skew did not panic")
		}
	}()
	s.MulMat(x, y, 2)
}

// TestSkewFromCOORejectsNonzeroDiagonal: the SSS builder enforces the skew
// diagonal contract.
func TestSkewFromCOORejectsNonzeroDiagonal(t *testing.T) {
	m := matrix.NewCOO(3, 3, 2)
	m.Symmetric, m.Skew = true, true
	m.Add(1, 0, 2)
	m.Add(2, 2, 5)
	m.Normalize()
	if _, err := FromCOO(m); err == nil {
		t.Fatal("expected error for nonzero diagonal in skew COO")
	}
}

// TestStructuralFromCOORejectsAsymmetricPattern: every lower entry needs an
// upper mirror and vice versa.
func TestStructuralFromCOORejectsAsymmetricPattern(t *testing.T) {
	m := matrix.NewCOO(3, 3, 2)
	m.Add(1, 0, 2) // no (0,1) mirror
	m.Add(2, 2, 1)
	m.Normalize()
	if _, err := FromCOOStructural(m); err == nil {
		t.Fatal("expected error for pattern-asymmetric COO")
	}
	m2 := matrix.NewCOO(3, 3, 2)
	m2.Add(0, 1, 2) // upper without lower mirror
	m2.Normalize()
	if _, err := FromCOOStructural(m2); err == nil {
		t.Fatal("expected error for upper entry without mirror")
	}
}

// TestKindAccounting: Bytes/LogicalNNZ track the kind's actual storage.
func TestKindAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	skew, err := FromCOO(randomSkew(t, rng, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	if skew.DValues != nil {
		t.Fatal("skew SSS allocated DValues")
	}
	wantSkew := int64(12*len(skew.Val)) + int64(4*(skew.N+1))
	if got := skew.Bytes(); got != wantSkew {
		t.Errorf("skew Bytes = %d, want %d (no diagonal term)", got, wantSkew)
	}
	if got := skew.LogicalNNZ(); got != 2*len(skew.Val) {
		t.Errorf("skew LogicalNNZ = %d, want %d", got, 2*len(skew.Val))
	}

	st, err := FromCOOStructural(randomStructural(t, rng, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.UVal) != len(st.Val) {
		t.Fatalf("structural UVal length %d != Val length %d", len(st.UVal), len(st.Val))
	}
	wantSt := int64(8*st.N) + int64(20*len(st.Val)) + int64(4*(st.N+1))
	if got := st.Bytes(); got != wantSt {
		t.Errorf("structural Bytes = %d, want %d (UVal priced)", got, wantSt)
	}

	// Traffic must follow the same storage: skew sheds the 8N diagonal term,
	// structural adds 8 bytes per stored element.
	pool := parallel.NewPool(2)
	defer pool.Close()
	ks := NewKernel(skew, EffectiveRanges, pool)
	n, nnz := int64(skew.N), int64(len(skew.Val))
	if got := ks.Traffic().MultMatrixBytes; got != 12*nnz+4*n {
		t.Errorf("skew MultMatrixBytes = %d, want %d", got, 12*nnz+4*n)
	}
	kst := NewKernel(st, EffectiveRanges, pool)
	n, nnz = int64(st.N), int64(len(st.Val))
	if got := kst.Traffic().MultMatrixBytes; got != 20*nnz+4*n+8*n {
		t.Errorf("structural MultMatrixBytes = %d, want %d", got, 20*nnz+4*n+8*n)
	}
}

// TestKindToCOORoundTrip: ToCOO must reproduce the operator for both kinds.
func TestKindToCOORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	skewM := randomSkew(t, rng, 30, 3)
	skew, err := FromCOO(skewM)
	if err != nil {
		t.Fatal(err)
	}
	back := skew.ToCOO(false)
	if !back.Skew || !back.Symmetric {
		t.Fatal("skew ToCOO lost the qualifier flags")
	}
	x := make([]float64, 30)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, 30)
	y2 := make([]float64, 30)
	skew.MulVec(x, y1)
	back.MulVec(x, y2)
	if d := maxRelDiff(y1, y2); d > 1e-12 {
		t.Errorf("skew ToCOO operator differs by %g", d)
	}

	stM := randomStructural(t, rng, 30, 3)
	st, err := FromCOOStructural(stM)
	if err != nil {
		t.Fatal(err)
	}
	gen := st.ToCOO(false)
	if gen.Symmetric {
		t.Fatal("structural ToCOO should expand to a general COO")
	}
	st.MulVec(x, y1)
	gen.MulVec(x, y2)
	if d := maxRelDiff(y1, y2); d > 1e-12 {
		t.Errorf("structural ToCOO operator differs by %g", d)
	}
}
