package symspmv

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/format"
)

// buildHubbySPD builds an SPD matrix with a few super-hub columns touched by
// almost every row, so every thread's transposed writes meet on the same few
// elements.
func buildHubbySPD(t testing.TB, rng *rand.Rand, n int) *Matrix {
	t.Helper()
	b := NewBuilder(n)
	rowAbs := make([]float64, n)
	add := func(r, c int, v float64) {
		b.Set(r, c, v)
		rowAbs[r] += math.Abs(v)
		rowAbs[c] += math.Abs(v)
	}
	for r := 4; r < n; r++ {
		for h := 0; h < 4; h++ { // columns 0..3 are hubs
			add(r, h, rng.NormFloat64())
		}
		add(r, 4+rng.Intn(r-4+1), rng.NormFloat64())
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

func TestMulMatTypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	A := buildRandomSPD(t, rng, 60, 2)
	n := A.N()

	kx, err := A.Kernel(CSXSym, Threads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer kx.Close()
	var me *MulMatError
	err = MulMat(kx, make([]float64, n*2), make([]float64, n*2), 2)
	if !errors.As(err, &me) || me.Format != CSXSym || me.NV != 2 {
		t.Fatalf("expected *MulMatError{CSXSym, 2}, got %v", err)
	}

	// Off the symmetric class the SSS rows lose their SpMM kernel: every row
	// the table says runs the class without MulMat answers the typed error.
	for _, c := range []struct {
		kind core.SymKind
		gen  func(*rand.Rand, int, int) (string, []float64)
	}{{core.Skew, skewMM}, {core.Structural, structuralMM}} {
		mm, _ := c.gen(rng, 40, 3)
		K, err := ReadMatrixMarket(strings.NewReader(mm))
		if err != nil {
			t.Fatal(err)
		}
		refused := 0
		for _, f := range formatsWith(0, c.kind) {
			if f.Desc().Has(format.MulMat, c.kind) {
				continue
			}
			ks, err := K.Kernel(f, Threads(2))
			if err != nil {
				t.Fatal(err)
			}
			err = MulMat(ks, make([]float64, 40*2), make([]float64, 40*2), 2)
			ks.Close()
			if !errors.As(err, &me) || me.Format != f {
				t.Fatalf("%v on a %v matrix: expected *MulMatError, got %v", f, c.kind, err)
			}
			refused++
		}
		if refused == 0 {
			t.Fatalf("%v: no format refused MulMat; the loop checked nothing", c.kind)
		}
	}

	kr, err := A.Kernel(SSSIndexed, Threads(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := MulMat(kr, make([]float64, n), make([]float64, n), 0); !errors.As(err, &me) {
		t.Fatalf("expected *MulMatError for nv=0, got %v", err)
	}
	if err := MulMat(kr, make([]float64, n), make([]float64, n*2), 2); !errors.As(err, &me) {
		t.Fatalf("expected *MulMatError for short x, got %v", err)
	}
	kr.Close()
	if err := MulMat(kr, make([]float64, n*2), make([]float64, n*2), 2); !errors.As(err, &me) {
		t.Fatalf("expected *MulMatError on closed kernel, got %v", err)
	}
	if me.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestSolveCGBlockFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	A := buildHubbySPD(t, rng, 220)
	n := A.N()
	const nv = 4
	xstar := make([]float64, n*nv)
	for i := range xstar {
		xstar[i] = rng.NormFloat64()
	}
	k, err := A.Kernel(SSSIndexed, Threads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	b := make([]float64, n*nv)
	if err := MulMat(k, xstar, b, nv); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n*nv)
	res, err := SolveCGBlock(k, b, x, nv, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllConverged() {
		t.Fatalf("block CG did not converge: %v", res)
	}
	for i := range x {
		if math.Abs(x[i]-xstar[i]) > 1e-6 {
			t.Fatalf("component %d: %g vs %g", i, x[i], xstar[i])
		}
	}

	// Unsupported format surfaces the typed error.
	kx, err := A.Kernel(CSXSym, Threads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer kx.Close()
	var me *MulMatError
	if _, err := SolveCGBlock(kx, make([]float64, n*2), make([]float64, n*2), 2, CGOptions{}); !errors.As(err, &me) {
		t.Fatalf("expected *MulMatError, got %v", err)
	}
}
