package fuzzcheck

import (
	"math"
	"testing"

	symspmv "repro"
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/matrix"
)

// Tol is the differential tolerance: |y_i − ref_i| ≤ Tol·Σ_j|A_ij·x_j|.
const Tol = 1e-12

// formatsWith filters the facade's format listing down to the formats
// offering capability c (0: just running) on a matrix of class k, so a new
// row of the format table is fuzzed without touching these tests.
func formatsWith(c format.Caps, k core.SymKind) []symspmv.Format {
	var out []symspmv.Format
	for _, f := range symspmv.Formats() {
		if f.Desc().Has(c, k) {
			out = append(out, f)
		}
	}
	return out
}

// threadCounts deliberately exceeds every matrix dimension in the tiny
// cases: N < p is the whole point of several generators.
var threadCounts = []int{1, 2, 3, 4, 8, 16}

// buildMatrix routes the raw triplets through the public builder — the same
// duplicate-summing, normalizing path every library consumer takes.
func buildMatrix(t *testing.T, m *matrix.COO) *symspmv.Matrix {
	t.Helper()
	b := symspmv.NewBuilder(m.Rows)
	for k := range m.Val {
		b.Set(int(m.RowIdx[k]), int(m.ColIdx[k]), m.Val[k])
	}
	a, err := b.Build()
	if err != nil {
		t.Fatalf("building %dx%d matrix: %v", m.Rows, m.Rows, err)
	}
	return a
}

// TestDifferentialSuite is the tentpole check: every adversarial case ×
// every format × every thread count agrees with the serial dense reference.
// y is pre-filled with NaN before each multiply because MulVec's contract is
// y = A·x, not y += A·x — a kernel that reads stale output propagates the
// NaN and fails loudly.
func TestDifferentialSuite(t *testing.T) {
	for _, tc := range AdversarialSuite() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			a := buildMatrix(t, tc.M)
			n := tc.M.Rows
			x := TestX(n, int64(n)+7)
			ref, scale := Reference(tc.M, x)
			for _, f := range symspmv.Formats() {
				for _, p := range threadCounts {
					k, err := a.Kernel(f, symspmv.Threads(p))
					if err != nil {
						t.Errorf("%v p=%d: Kernel: %v", f, p, err)
						continue
					}
					y := make([]float64, n)
					for rep := 0; rep < 2; rep++ {
						for i := range y {
							y[i] = math.NaN()
						}
						k.MulVec(x, y)
						if err := Compare(y, ref, scale, Tol); err != nil {
							t.Errorf("%v p=%d rep=%d: %v", f, p, rep, err)
							break
						}
					}
					k.Close()
				}
			}
		})
	}
}

// TestReferenceSelfConsistent pins the reference itself against the
// independent COO triplet kernel, so a bug in the dense expansion cannot
// silently weaken every other check.
func TestReferenceSelfConsistent(t *testing.T) {
	for _, tc := range AdversarialSuite() {
		n := tc.M.Rows
		x := TestX(n, 3)
		ref, scale := Reference(tc.M, x)
		y := make([]float64, n)
		tc.M.MulVec(x, y)
		if err := Compare(y, ref, scale, Tol); err != nil {
			t.Errorf("%s: COO kernel vs dense reference: %v", tc.Name, err)
		}
	}
}
