package symspmv

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildRandomSPD(t testing.TB, rng *rand.Rand, n, offPerRow int) *Matrix {
	t.Helper()
	b := NewBuilder(n)
	rowAbs := make([]float64, n)
	for r := 1; r < n; r++ {
		for k := 0; k < offPerRow; k++ {
			c := rng.Intn(r)
			v := rng.NormFloat64()
			b.Set(r, c, v)
			rowAbs[r] += math.Abs(v)
			rowAbs[c] += math.Abs(v)
		}
	}
	for r := 0; r < n; r++ {
		b.Set(r, r, rowAbs[r]+1)
	}
	A, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return A
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(3)
	b.Set(0, 0, 1)
	b.Set(2, 0, 5)
	b.Set(0, 2, 5) // upper coordinates are mirrored; sums with the previous
	A, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if A.N() != 3 {
		t.Fatalf("N = %d", A.N())
	}
	x := []float64{0, 0, 1}
	y := make([]float64, 3)
	A.MulVec(x, y)
	if y[0] != 10 {
		t.Fatalf("mirrored duplicate not summed: y[0] = %g, want 10", y[0])
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.Set(5, 0, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range entry")
	}
}

func TestAllKernelFormatsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	A := buildRandomSPD(t, rng, 500, 4)
	n := A.N()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	A.MulVec(x, want)

	for _, f := range Formats() {
		for _, threads := range []int{1, 4} {
			k, err := A.Kernel(f, Threads(threads))
			if err != nil {
				t.Fatalf("%v: %v", f, err)
			}
			got := make([]float64, n)
			k.MulVec(x, got)
			k.MulVec(x, got) // repeatability with reused local state
			for i := range want {
				if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("%v threads=%d: row %d differs", f, threads, i)
				}
			}
			if k.Format() != f || k.Threads() != threads || k.Bytes() <= 0 {
				t.Fatalf("%v: bad kernel metadata", f)
			}
			k.Close()
		}
	}
}

func TestKernelCloseIsIdempotentAndGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	A := buildRandomSPD(t, rng, 50, 2)
	k, err := A.Kernel(SSSIndexed, Threads(2))
	if err != nil {
		t.Fatal(err)
	}
	k.Close()
	k.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for MulVec on closed kernel")
		}
	}()
	k.MulVec(make([]float64, 50), make([]float64, 50))
}

func TestKernelRejectsBadThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	A := buildRandomSPD(t, rng, 20, 2)
	if _, err := A.Kernel(CSR, Threads(-1)); err == nil {
		t.Fatal("accepted negative thread count")
	}
}

func TestSolveCGOnPoisson(t *testing.T) {
	A, err := GeneratePoisson2D(40)
	if err != nil {
		t.Fatal(err)
	}
	n := A.N()
	k, err := A.Kernel(SSSIndexed, Threads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()

	xstar := make([]float64, n)
	for i := range xstar {
		xstar[i] = math.Sin(float64(i) * 0.1)
	}
	b := make([]float64, n)
	A.MulVec(xstar, b)

	x := make([]float64, n)
	res, err := SolveCG(k, b, x, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: %v", res)
	}
	for i := range x {
		if math.Abs(x[i]-xstar[i]) > 1e-6 {
			t.Fatalf("solution error at %d: %g", i, math.Abs(x[i]-xstar[i]))
		}
	}
}

func TestSolveCGDimsChecked(t *testing.T) {
	A, _ := GeneratePoisson2D(5)
	k, _ := A.Kernel(CSR, Threads(1))
	defer k.Close()
	if _, err := SolveCG(k, make([]float64, 3), make([]float64, A.N()), CGOptions{}); err == nil {
		t.Fatal("accepted wrong-length b")
	}
}

func TestMatrixMarketRoundTripThroughFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	A := buildRandomSPD(t, rng, 80, 3)
	var buf bytes.Buffer
	if err := A.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	B, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if B.N() != A.N() || B.NNZ() != A.NNZ() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", B.N(), B.NNZ(), A.N(), A.NNZ())
	}
	x := make([]float64, A.N())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, A.N())
	y2 := make([]float64, A.N())
	A.MulVec(x, y1)
	B.MulVec(x, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("multiply differs after round trip at %d", i)
		}
	}
}

func TestReorderRCMFacade(t *testing.T) {
	A, err := GenerateSuiteMatrix("G3_circuit", 0.003)
	if err != nil {
		t.Fatal(err)
	}
	R, perm, err := A.ReorderRCM()
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != A.N() {
		t.Fatalf("perm length %d", len(perm))
	}
	if R.Stats().Bandwidth >= A.Stats().Bandwidth {
		t.Fatalf("RCM did not reduce bandwidth: %d -> %d",
			A.Stats().Bandwidth, R.Stats().Bandwidth)
	}
	// Operator equivalence: R·(P·x) == P·(A·x).
	rng := rand.New(rand.NewSource(95))
	x := make([]float64, A.N())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	px := make([]float64, A.N())
	for i := range x {
		px[perm[i]] = x[i]
	}
	y := make([]float64, A.N())
	A.MulVec(x, y)
	py := make([]float64, A.N())
	R.MulVec(px, py)
	for i := range y {
		if math.Abs(py[perm[i]]-y[i]) > 1e-9 {
			t.Fatalf("reordered operator differs at %d", i)
		}
	}
}

func TestSuiteNames(t *testing.T) {
	names := SuiteNames()
	if len(names) != 12 || names[0] != "parabolic_fem" || names[11] != "ldoor" {
		t.Fatalf("SuiteNames = %v", names)
	}
	if _, err := GenerateSuiteMatrix("nope", 0.01); err == nil {
		t.Fatal("accepted unknown suite matrix")
	}
}

func TestGeneratePoisson2DValidation(t *testing.T) {
	if _, err := GeneratePoisson2D(1); err == nil {
		t.Fatal("accepted side 1")
	}
	A, err := GeneratePoisson2D(3)
	if err != nil {
		t.Fatal(err)
	}
	// Row sums of the interior are 0 except boundary truncation; check the
	// classic stencil at the center: 4 on diagonal, four -1 neighbors.
	x := make([]float64, 9)
	x[4] = 1
	y := make([]float64, 9)
	A.MulVec(x, y)
	if y[4] != 4 || y[1] != -1 || y[3] != -1 || y[5] != -1 || y[7] != -1 {
		t.Fatalf("Poisson stencil wrong: %v", y)
	}
}

// Property: for any SPD system, every format's kernel yields the same CG
// solution as the reference serial multiply.
func TestQuickFormatsSolveIdentically(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		A := buildRandomSPD(t, rng, n, 1+rng.Intn(3))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ref := make([]float64, n)
		kRef, err := A.Kernel(CSR, Threads(1))
		if err != nil {
			return false
		}
		if _, err := SolveCG(kRef, b, ref, CGOptions{Tol: 1e-11}); err != nil {
			return false
		}
		kRef.Close()

		format := []Format{SSSIndexed, CSXSym}[rng.Intn(2)]
		k, err := A.Kernel(format, Threads(1+rng.Intn(4)))
		if err != nil {
			return false
		}
		defer k.Close()
		x := make([]float64, n)
		if _, err := SolveCG(k, b, x, CGOptions{Tol: 1e-11}); err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-6*(1+math.Abs(ref[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveCGJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	A := buildRandomSPD(t, rng, 400, 3)
	k, err := A.Kernel(SSSIndexed, Threads(3))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	xstar := make([]float64, A.N())
	for i := range xstar {
		xstar[i] = rng.NormFloat64()
	}
	b := make([]float64, A.N())
	A.MulVec(xstar, b)
	x := make([]float64, A.N())
	res, err := SolveCGJacobi(A, k, b, x, CGOptions{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("Jacobi-PCG did not converge: %v", res)
	}
	for i := range x {
		if math.Abs(x[i]-xstar[i]) > 1e-6 {
			t.Fatalf("solution error at %d: %g", i, math.Abs(x[i]-xstar[i]))
		}
	}
	// Mismatched matrix is rejected.
	B := buildRandomSPD(t, rng, 10, 1)
	if _, err := SolveCGJacobi(B, k, b, x, CGOptions{}); err == nil {
		t.Fatal("accepted mismatched matrix/kernel pair")
	}
}

func TestSaveAndLoadCSXSymKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	A := buildRandomSPD(t, rng, 300, 3)
	k, err := A.Kernel(CSXSym, Threads(3))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	path := t.TempDir() + "/a.csxs"
	if err := SaveKernel(k, path); err != nil {
		t.Fatal(err)
	}
	k2, err := LoadCSXSymKernel(path)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if k2.Threads() != 3 || k2.Bytes() != k.Bytes() {
		t.Fatalf("loaded kernel metadata differs: threads=%d bytes=%d", k2.Threads(), k2.Bytes())
	}
	x := make([]float64, A.N())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, A.N())
	y2 := make([]float64, A.N())
	k.MulVec(x, y1)
	k2.MulVec(x, y2)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("loaded kernel differs at %d", i)
		}
	}
	// Non-CSXSym kernels are rejected.
	kc, _ := A.Kernel(CSR, Threads(1))
	defer kc.Close()
	if err := SaveKernel(kc, path); err == nil {
		t.Fatal("SaveKernel accepted a CSR kernel")
	}
}

func TestMulMatFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	A := buildRandomSPD(t, rng, 200, 3)
	n := A.N()
	const nv = 3
	x := make([]float64, n*nv)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// Reference: per-column serial multiplies.
	want := make([]float64, n*nv)
	xc := make([]float64, n)
	yc := make([]float64, n)
	for v := 0; v < nv; v++ {
		for i := 0; i < n; i++ {
			xc[i] = x[i*nv+v]
		}
		A.MulVec(xc, yc)
		for i := 0; i < n; i++ {
			want[i*nv+v] = yc[i]
		}
	}
	for _, f := range []Format{CSR, SSSIndexed, SSSNaive, SSSEffective, SSSColored} {
		k, err := A.Kernel(f, Threads(3))
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, n*nv)
		if err := MulMat(k, x, y, nv); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		for i := range want {
			if math.Abs(want[i]-y[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%v: component %d differs", f, i)
			}
		}
		k.Close()
	}
	// Unsupported format errors cleanly.
	kx, err := A.Kernel(CSXSym, Threads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer kx.Close()
	if err := MulMat(kx, x, make([]float64, n*nv), nv); err == nil {
		t.Fatal("MulMat accepted CSX-Sym kernel")
	}
	// Bad dims error cleanly.
	kr, _ := A.Kernel(CSR, Threads(1))
	defer kr.Close()
	if err := MulMat(kr, x[:3], x[:3], nv); err == nil {
		t.Fatal("MulMat accepted bad dims")
	}
}
