package symspmv

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/format"
)

// skewMM renders a random n×n skew-symmetric matrix as a Matrix Market
// stream and its dense expansion (row-major).
func skewMM(rng *rand.Rand, n, offPerRow int) (string, []float64) {
	dense := make([]float64, n*n)
	var b strings.Builder
	var lines []string
	for r := 1; r < n; r++ {
		for k := 0; k < offPerRow; k++ {
			c := rng.Intn(r)
			v := rng.NormFloat64()
			if dense[r*n+c] != 0 {
				continue // duplicate coordinate: keep the file canonical
			}
			dense[r*n+c] = v
			dense[c*n+r] = -v
			lines = append(lines, fmt.Sprintf("%d %d %.17g", r+1, c+1, v))
		}
	}
	b.WriteString("%%MatrixMarket matrix coordinate real skew-symmetric\n")
	fmt.Fprintf(&b, "%d %d %d\n", n, n, len(lines))
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	return b.String(), dense
}

// structuralMM renders a general matrix with a mirrored pattern but
// unmirrored values, plus its dense expansion.
func structuralMM(rng *rand.Rand, n, offPerRow int) (string, []float64) {
	dense := make([]float64, n*n)
	for r := 0; r < n; r++ {
		dense[r*n+r] = rng.NormFloat64()
	}
	for r := 1; r < n; r++ {
		for k := 0; k < offPerRow; k++ {
			c := rng.Intn(r)
			if dense[r*n+c] != 0 {
				continue
			}
			dense[r*n+c] = rng.NormFloat64()
			dense[c*n+r] = rng.NormFloat64() // mirrored slot, independent value
		}
	}
	var lines []string
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if v := dense[r*n+c]; v != 0 {
				lines = append(lines, fmt.Sprintf("%d %d %.17g", r+1, c+1, v))
			}
		}
	}
	var b strings.Builder
	b.WriteString("%%MatrixMarket matrix coordinate real general\n")
	fmt.Fprintf(&b, "%d %d %d\n", n, n, len(lines))
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	return b.String(), dense
}

// formatsWith filters the Formats() listing down to the formats offering
// capability c (0: just running) on a matrix of class k.
func formatsWith(c format.Caps, k core.SymKind) []Format {
	var out []Format
	for _, f := range Formats() {
		if f.Desc().Has(c, k) {
			out = append(out, f)
		}
	}
	return out
}

func denseMul(dense []float64, n int, x, y []float64) {
	for r := 0; r < n; r++ {
		acc := 0.0
		for c := 0; c < n; c++ {
			acc += dense[r*n+c] * x[c]
		}
		y[r] = acc
	}
}

func checkKindKernel(t *testing.T, a *Matrix, dense []float64, f Format, threads int) {
	t.Helper()
	n := a.N()
	k, err := a.Kernel(f, Threads(threads))
	if err != nil {
		t.Fatalf("%v p=%d: %v", f, threads, err)
	}
	defer k.Close()
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, n)
	want := make([]float64, n)
	k.MulVec(x, y)
	denseMul(dense, n, x, want)
	for i := range y {
		if d := math.Abs(y[i] - want[i]); d > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("%v p=%d: y[%d] = %g, dense reference %g", f, threads, i, y[i], want[i])
		}
	}
}

// TestFacadeSkewMatrix drives a skew-symmetric .mtx through the public API:
// classification, every kind-capable kernel against the dense reference,
// write round-trip, and the gates on the symmetric-only surfaces.
func TestFacadeSkewMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mm, dense := skewMM(rng, 97, 5)
	a, err := ReadMatrixMarket(strings.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.SymmetryClass(); got != "skew-symmetric" {
		t.Fatalf("SymmetryClass() = %q", got)
	}
	if !a.Stats().Skew {
		t.Fatal("Stats().Skew = false")
	}
	for _, f := range formatsWith(0, core.Skew) {
		for _, p := range []int{1, 3} {
			checkKindKernel(t, a, dense, f, p)
		}
	}

	// The serial reference kernel computes the same operator.
	x := make([]float64, a.N())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, a.N())
	want := make([]float64, a.N())
	a.MulVec(x, y)
	denseMul(dense, a.N(), x, want)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("serial MulVec: y[%d] = %g, want %g", i, y[i], want[i])
		}
	}

	// Write → read is class-preserving and value-exact.
	var buf bytes.Buffer
	if err := a.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.SymmetryClass() != "skew-symmetric" || b.NNZ() != a.NNZ() {
		t.Fatalf("round trip: class %q nnz %d, want skew-symmetric %d", b.SymmetryClass(), b.NNZ(), a.NNZ())
	}

	// Symmetric-only surfaces refuse with the class in the message.
	refused := 0
	for _, f := range Formats() {
		if f.Desc().Has(0, core.Skew) {
			continue
		}
		refused++
		if _, err := a.Kernel(f); err == nil || !strings.Contains(err.Error(), "skew-symmetric") {
			t.Fatalf("Kernel(%v) = %v, want class-naming error", f, err)
		}
	}
	if refused == 0 {
		t.Fatal("no format refuses skew-symmetric matrices; the gate is untested")
	}

	// CG is gated: skew operators are never SPD.
	k, err := a.Kernel(SSSIndexed, Threads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	bvec := make([]float64, a.N())
	if _, err := SolveCG(k, bvec, make([]float64, a.N()), CGOptions{}); err == nil ||
		!strings.Contains(err.Error(), "positive definite") {
		t.Fatalf("SolveCG = %v, want SPD gate", err)
	}
	if _, err := SolveCGJacobi(a, k, bvec, make([]float64, a.N()), CGOptions{}); err == nil ||
		!strings.Contains(err.Error(), "positive definite") {
		t.Fatalf("SolveCGJacobi = %v, want SPD gate", err)
	}
	var mme *MulMatError
	if err := MulMat(k, make([]float64, 2*a.N()), make([]float64, 2*a.N()), 2); !errors.As(err, &mme) {
		t.Fatalf("MulMat on a skew kernel = %v, want *MulMatError", err)
	}
	if SupportsMulMat(k) {
		t.Fatal("SupportsMulMat reported true for a skew SSS kernel")
	}
}

// TestFacadeStructuralMatrix drives a pattern-symmetric general .mtx through
// the public API: structural classification, kernels against the dense
// reference, and RCM reordering staying in class.
func TestFacadeStructuralMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	mm, dense := structuralMM(rng, 83, 4)
	a, err := ReadMatrixMarket(strings.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.SymmetryClass(); got != "structurally-symmetric" {
		t.Fatalf("SymmetryClass() = %q", got)
	}
	if !a.Stats().PatternSym {
		t.Fatal("Stats().PatternSym = false")
	}
	for _, f := range formatsWith(0, core.Structural) {
		for _, p := range []int{1, 3} {
			checkKindKernel(t, a, dense, f, p)
		}
	}

	// RCM keeps the structural class and the operator: P·A·Pᵀ against the
	// permuted dense reference.
	ra, perm, err := a.ReorderRCM()
	if err != nil {
		t.Fatal(err)
	}
	if ra.SymmetryClass() != "structurally-symmetric" {
		t.Fatalf("reordered class %q", ra.SymmetryClass())
	}
	n := a.N()
	pd := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			pd[int(perm[r])*n+int(perm[c])] = dense[r*n+c]
		}
	}
	checkKindKernel(t, ra, pd, SSSIndexed, 3)

	// A numerically symmetric general file still lands on the plain
	// symmetric path (the historical contract).
	var b strings.Builder
	b.WriteString("%%MatrixMarket matrix coordinate real general\n")
	b.WriteString("2 2 4\n1 1 2\n2 2 2\n1 2 -1\n2 1 -1\n")
	s, err := ReadMatrixMarket(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if s.SymmetryClass() != "symmetric" {
		t.Fatalf("numerically symmetric general file classified %q", s.SymmetryClass())
	}
}
