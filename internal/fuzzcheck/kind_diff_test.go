package fuzzcheck

import (
	"bytes"
	"math"
	"testing"

	symspmv "repro"
	"repro/internal/core"
	"repro/internal/matrix"
)

// buildKindMatrix routes the case through the full ingestion path: Matrix
// Market serialization and back, then the facade reader's classification.
// That makes the differential check cover the skew header round-trip and the
// structural pattern detection, not just the kernels.
func buildKindMatrix(t *testing.T, m *matrix.COO, wantClass string) *symspmv.Matrix {
	t.Helper()
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatalf("serializing case: %v", err)
	}
	a, err := symspmv.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatalf("reading case back: %v", err)
	}
	if got := a.SymmetryClass(); got != wantClass {
		t.Fatalf("classified %q, want %q", got, wantClass)
	}
	return a
}

// TestKindDifferentialSuite is the skew/structural analog of
// TestDifferentialSuite: every KindSuite case × every format whose descriptor
// runs the case's class (the unsymmetric baselines, which expand to a full
// general matrix, and the kind-generalized SSS methods; CSX-Sym hard-codes the
// symmetric transposed write) × every thread count agrees with the serial dense reference (which mirrors
// −v for skew input and takes general input as stored). y is pre-filled with
// NaN before each multiply, and each kernel runs twice to catch stale
// per-call state.
func TestKindDifferentialSuite(t *testing.T) {
	for _, tc := range KindSuite() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			kind := core.Skew
			if !tc.M.Symmetric {
				kind = core.Structural
			}
			a := buildKindMatrix(t, tc.M, kind.String())
			n := tc.M.Rows
			x := TestX(n, int64(n)+13)
			ref, scale := Reference(tc.M, x)
			for _, f := range formatsWith(0, kind) {
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

// TestKindReferenceSelfConsistent pins the skew-aware dense reference
// against the independent COO triplet kernel, exactly as
// TestReferenceSelfConsistent does for the symmetric suite.
func TestKindReferenceSelfConsistent(t *testing.T) {
	for _, tc := range KindSuite() {
		n := tc.M.Rows
		x := TestX(n, 5)
		ref, scale := Reference(tc.M, x)
		y := make([]float64, n)
		tc.M.MulVec(x, y)
		if err := Compare(y, ref, scale, Tol); err != nil {
			t.Errorf("%s: COO kernel vs dense reference: %v", tc.Name, err)
		}
	}
}
