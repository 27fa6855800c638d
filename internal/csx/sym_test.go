package csx

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

func TestSymMatrixMetadata(t *testing.T) {
	ms := testMatrices(t)
	m := ms["blocked"]
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	sm := NewSym(s, 4, core.Indexed, DefaultOptions())
	if sm.NNZLower() != len(s.Val) {
		t.Fatalf("NNZLower = %d, want %d", sm.NNZLower(), len(s.Val))
	}
	if sm.LogicalNNZ() != 2*len(s.Val)+s.N {
		t.Fatalf("LogicalNNZ = %d", sm.LogicalNNZ())
	}
	if sm.Bytes() <= int64(8*sm.N) {
		t.Fatalf("Bytes = %d suspiciously small", sm.Bytes())
	}
	if sm.Bytes() >= s.Bytes() {
		t.Fatalf("CSX-Sym (%d B) did not compress below SSS (%d B) on a blocked matrix",
			sm.Bytes(), s.Bytes())
	}
}

func TestSymPoolSizeMismatchPanics(t *testing.T) {
	ms := testMatrices(t)
	s, err := core.FromCOO(ms["banded"])
	if err != nil {
		t.Fatal(err)
	}
	sm := NewSym(s, 4, core.Indexed, DefaultOptions())
	pool := parallel.NewPool(2) // != 4 blobs
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on pool/blob mismatch")
		}
	}()
	x := make([]float64, sm.N)
	y := make([]float64, sm.N)
	sm.MulVec(pool, x, y)
}

// NewSym runs SSS.Validate before it encodes: an unsorted row is refused with
// Validate's error, not encoded into a blob that would scatter into the wrong
// thread's range.
func TestNewSymRefusesInvalidSSS(t *testing.T) {
	s, err := core.FromCOO(testMatrices(t)["banded"])
	if err != nil {
		t.Fatal(err)
	}
	r := 0
	for s.RowPtr[r+1]-s.RowPtr[r] < 2 {
		r++
	}
	j := s.RowPtr[r]
	s.ColIdx[j], s.ColIdx[j+1] = s.ColIdx[j+1], s.ColIdx[j]
	want := s.Validate()
	if want == nil {
		t.Fatal("Validate accepted an unsorted row")
	}
	defer func() {
		if got, _ := recover().(error); got == nil || got.Error() != want.Error() {
			t.Fatalf("NewSym panicked with %v, want Validate's error %q", got, want)
		}
	}()
	NewSym(s, 2, core.Indexed, DefaultOptions())
}

func TestMatrixPoolSizeMismatchPanics(t *testing.T) {
	ms := testMatrices(t)
	mx := NewMatrix(ms["banded"], 3, DefaultOptions())
	pool := parallel.NewPool(2)
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on pool/blob mismatch")
		}
	}()
	x := make([]float64, mx.Cols)
	y := make([]float64, mx.Rows)
	mx.MulVec(pool, x, y)
}

func TestCSXOnRectangularMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := matrix.NewCOO(120, 300, 800)
	for k := 0; k < 800; k++ {
		m.Add(rng.Intn(120), rng.Intn(300), rng.NormFloat64())
	}
	m.Normalize()
	mx := NewMatrix(m, 3, DefaultOptions())
	x := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, 120)
	got := make([]float64, 120)
	m.MulVec(x, want)
	pool := parallel.NewPool(3)
	defer pool.Close()
	mx.MulVec(pool, x, got)
	for i := range want {
		if d := want[i] - got[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("row %d differs by %g", i, d)
		}
	}
	back, err := DecodeMatrix(mx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTriplets(t, "rectangular", back, m)
}

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MinRunLength != 3 || o.MinCoverage != 0.05 || o.SampleFraction != 0.25 {
		t.Fatalf("defaults = %+v", o)
	}
	if len(o.Directions) != 3 {
		t.Fatalf("default directions = %v", o.Directions)
	}
	o2 := Options{MinRunLength: 5, SampleFraction: 2.5}.withDefaults()
	if o2.MinRunLength != 5 {
		t.Fatalf("explicit MinRunLength overridden: %d", o2.MinRunLength)
	}
	if o2.SampleFraction != 0.25 {
		t.Fatalf("out-of-range SampleFraction kept: %g", o2.SampleFraction)
	}
}

func TestMaxSymCompressionRatioFormula(t *testing.T) {
	// NNZ >> N limit: CSR 12 bytes/elem vs 4 bytes/elem -> 2/3.
	cr := MaxSymCompressionRatio(50_000_000, 1000)
	if cr < 0.66 || cr > 0.67 {
		t.Fatalf("limit C.R. = %g, want ~0.6667", cr)
	}
	// Diagonal-only matrix: lower = 0.
	cr0 := MaxSymCompressionRatio(0, 1000)
	if cr0 <= 0 || cr0 >= 1 {
		t.Fatalf("diag-only C.R. = %g", cr0)
	}
}

func TestPatternAndDirectionStrings(t *testing.T) {
	for p := Pattern(0); p < numPatterns; p++ {
		if p.String() == "" {
			t.Fatalf("empty string for pattern %d", p)
		}
	}
	if Pattern(63).String() == "" {
		t.Fatal("unknown pattern must still render")
	}
	for d := Direction(0); d < numDirections; d++ {
		if d.String() == "" || d.pattern() > numPatterns {
			t.Fatalf("direction %d bad", d)
		}
	}
}

func TestSymNaiveAndEffectiveMethods(t *testing.T) {
	// CSX-Sym is normally paired with Indexed; the other methods must stay
	// correct across repeated calls (state re-zeroing).
	ms := testMatrices(t)
	rng := rand.New(rand.NewSource(15))
	for _, name := range []string{"banded", "scattered"} {
		m := ms[name]
		s, err := core.FromCOO(m)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, s.N)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, s.N)
		m.MulVec(x, want)
		for _, method := range []core.ReductionMethod{core.Naive, core.EffectiveRanges} {
			sm := NewSym(s, 5, method, DefaultOptions())
			pool := parallel.NewPool(5)
			y := make([]float64, s.N)
			for rep := 0; rep < 3; rep++ {
				sm.MulVec(pool, x, y)
			}
			pool.Close()
			for i := range want {
				if d := want[i] - y[i]; d > 1e-9 || d < -1e-9 {
					t.Fatalf("%s/%v: row %d differs by %g", name, method, i, d)
				}
			}
		}
	}
}

// MulVecDot must produce the same output as MulVec bitwise (the fused dot
// only adds reads) and return xᵀ·(A·x), under every reduction method,
// spinning and oversubscribed (GOMAXPROCS 1) alike.
func TestSymMulVecDot(t *testing.T) {
	ms := testMatrices(t)
	rng := rand.New(rand.NewSource(16))
	for _, name := range []string{"banded", "blocked", "scattered"} {
		s, err := core.FromCOO(ms[name])
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, s.N)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for _, method := range []core.ReductionMethod{core.Naive, core.EffectiveRanges, core.Indexed} {
			sm := NewSym(s, 4, method, DefaultOptions())
			var prevDot float64
			for mi, procs := range []int{4, 1} {
				prev := runtime.GOMAXPROCS(procs)
				pool := parallel.NewPool(4)
				y1 := make([]float64, s.N)
				y2 := make([]float64, s.N)
				sm.MulVec(pool, x, y1)
				dot := sm.MulVecDot(pool, x, y2)
				pool.Close()
				runtime.GOMAXPROCS(prev)
				for i := range y1 {
					if y1[i] != y2[i] {
						t.Fatalf("%s/%v: y[%d] differs: MulVec %g, MulVecDot %g",
							name, method, i, y1[i], y2[i])
					}
				}
				want := 0.0
				for i := range y1 {
					want += x[i] * y1[i]
				}
				if d := dot - want; d > 1e-9 || d < -1e-9 {
					t.Fatalf("%s/%v: dot=%g, want %g", name, method, dot, want)
				}
				if mi > 0 && dot != prevDot {
					t.Fatalf("%s/%v: dot differs across GOMAXPROCS: %g vs %g",
						name, method, dot, prevDot)
				}
				prevDot = dot
			}
		}
	}
}

// TestSymMulVecZeroAlloc: the two phase lists are assembled once, so neither
// product allocates and each costs exactly one hand-off — on any
// pool of the right size, not just the first one seen.
func TestSymMulVecZeroAlloc(t *testing.T) {
	s, err := core.FromCOO(testMatrices(t)["blocked"])
	if err != nil {
		t.Fatal(err)
	}
	x, y := make([]float64, s.N), make([]float64, s.N)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	sm := NewSym(s, 2, core.Indexed, DefaultOptions())
	for round := 0; round < 2; round++ {
		pool := parallel.NewPool(2)
		sm.MulVec(pool, x, y)
		sm.MulVecDot(pool, x, y)
		pool.ResetHandoffs()
		if a := testing.AllocsPerRun(10, func() { sm.MulVec(pool, x, y) }); a != 0 {
			t.Errorf("pool %d: MulVec allocates %v times per call, want 0", round, a)
		}
		if a := testing.AllocsPerRun(10, func() { sm.MulVecDot(pool, x, y) }); a != 0 {
			t.Errorf("pool %d: MulVecDot allocates %v times per call, want 0", round, a)
		}
		if got := pool.Handoffs(); got != 22 { // AllocsPerRun runs once to warm up
			t.Errorf("pool %d: 22 products cost %d handoffs", round, got)
		}
		pool.Close()
	}
}
