package vec

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/parallel"
)

func pools(t *testing.T, fn func(p *parallel.Pool)) {
	t.Helper()
	for _, n := range []int{1, 3, 8} {
		p := parallel.NewPool(n)
		fn(p)
		p.Close()
	}
}

func TestDot(t *testing.T) {
	pools(t, func(p *parallel.Pool) {
		a := []float64{1, 2, 3, 4}
		b := []float64{4, 3, 2, 1}
		if got := Dot(p, a, b); got != 20 {
			t.Fatalf("Dot = %g, want 20", got)
		}
		if got := Dot(p, nil, nil); got != 0 {
			t.Fatalf("Dot(empty) = %g, want 0", got)
		}
	})
}

func TestAxpyXpaySubScaleCopyFill(t *testing.T) {
	pools(t, func(p *parallel.Pool) {
		x := []float64{1, 2, 3}
		y := []float64{10, 20, 30}
		Axpy(p, 2, x, y)
		want := []float64{12, 24, 36}
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("Axpy: y = %v, want %v", y, want)
			}
		}
		Xpay(p, 0.5, x, y) // y = x + 0.5y
		want = []float64{7, 14, 21}
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("Xpay: y = %v, want %v", y, want)
			}
		}
		dst := make([]float64, 3)
		Sub(p, dst, y, x)
		want = []float64{6, 12, 18}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("Sub: %v, want %v", dst, want)
			}
		}
		Scale(p, 1.0/6, dst)
		want = []float64{1, 2, 3}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("Scale: %v, want %v", dst, want)
			}
		}
		cp := make([]float64, 3)
		Copy(p, cp, dst)
		for i := range cp {
			if cp[i] != dst[i] {
				t.Fatalf("Copy: %v", cp)
			}
		}
		Fill(p, cp, -1)
		for i := range cp {
			if cp[i] != -1 {
				t.Fatalf("Fill: %v", cp)
			}
		}
	})
}

func TestNorm2(t *testing.T) {
	pools(t, func(p *parallel.Pool) {
		v := []float64{3, 4}
		if got := Norm2(p, v); math.Abs(got-5) > 1e-15 {
			t.Fatalf("Norm2 = %g, want 5", got)
		}
	})
}

// Property: parallel Dot matches serial accumulation for any pool size.
func TestQuickDotMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		a := make([]float64, n)
		b := make([]float64, n)
		serial := 0.0
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			serial += a[i] * b[i]
		}
		p := parallel.NewPool(1 + rng.Intn(8))
		defer p.Close()
		got := Dot(p, a, b)
		return math.Abs(got-serial) <= 1e-9*(1+math.Abs(serial))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: Dot over the same pool size reduces partials in a fixed
// order, so results are bitwise reproducible.
func TestDotDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	a := make([]float64, 10000)
	b := make([]float64, 10000)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	p := parallel.NewPool(7)
	defer p.Close()
	first := Dot(p, a, b)
	for i := 0; i < 5; i++ {
		if got := Dot(p, a, b); got != first {
			t.Fatalf("Dot not deterministic: %g vs %g", got, first)
		}
	}
}

// SubCopyDots must be bitwise identical to the unfused Sub/Copy/Dot/Dot
// sequence it replaces in the CG setup.
func TestSubCopyDotsMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 7, 1000} {
		for _, p := range []int{1, 3, 8} {
			pool := parallel.NewPool(p)
			b := make([]float64, n)
			ap := make([]float64, n)
			for i := 0; i < n; i++ {
				b[i] = rng.NormFloat64()
				ap[i] = rng.NormFloat64()
			}
			rWant := make([]float64, n)
			pWant := make([]float64, n)
			Sub(pool, rWant, b, ap)
			Copy(pool, pWant, rWant)
			bbWant := Dot(pool, b, b)
			rrWant := Dot(pool, rWant, rWant)

			rGot := make([]float64, n)
			pGot := make([]float64, n)
			bb, rr := SubCopyDots(pool, rGot, pGot, b, ap)
			pool.Close()
			if bb != bbWant || rr != rrWant {
				t.Fatalf("n=%d p=%d: dots (%g,%g), want (%g,%g)", n, p, bb, rr, bbWant, rrWant)
			}
			for i := 0; i < n; i++ {
				if rGot[i] != rWant[i] || pGot[i] != pWant[i] {
					t.Fatalf("n=%d p=%d: vectors differ at %d", n, p, i)
				}
			}
		}
	}
}

// CGStep must be bitwise identical to the unfused axpy/axpy/dot/xpay chain
// of one CG iteration, spinning and oversubscribed (GOMAXPROCS 1) alike.
func TestCGStepMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 9, 1000} {
		for _, p := range []int{1, 4, 8} {
			for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
				prev := runtime.GOMAXPROCS(procs)
				pool := parallel.NewPool(p)
				pv := make([]float64, n)
				ap := make([]float64, n)
				x := make([]float64, n)
				r := make([]float64, n)
				for i := 0; i < n; i++ {
					pv[i] = rng.NormFloat64()
					ap[i] = rng.NormFloat64()
					x[i] = rng.NormFloat64()
					r[i] = rng.NormFloat64()
				}
				alpha := 0.37
				rrOld := Dot(pool, r, r)

				// Unfused reference on copies.
				xw := append([]float64(nil), x...)
				rw := append([]float64(nil), r...)
				pw := append([]float64(nil), pv...)
				Axpy(pool, alpha, pw, xw)
				Axpy(pool, -alpha, ap, rw)
				rrWant := Dot(pool, rw, rw)
				Xpay(pool, rrWant/rrOld, rw, pw)

				rrGot := CGStep(pool, alpha, rrOld, pv, ap, x, r)
				pool.Close()
				runtime.GOMAXPROCS(prev)
				if rrGot != rrWant {
					t.Fatalf("n=%d p=%d GOMAXPROCS=%d: rr=%g, want %g", n, p, procs, rrGot, rrWant)
				}
				for i := 0; i < n; i++ {
					if x[i] != xw[i] || r[i] != rw[i] || pv[i] != pw[i] {
						t.Fatalf("n=%d p=%d GOMAXPROCS=%d: vectors differ at %d", n, p, procs, i)
					}
				}
			}
		}
	}
}

// workerSpans dumps the tracer and returns each worker lane's span names in
// recording order.
func workerSpans(t *testing.T, p int) [][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	lanes := make([][]string, p)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.TID < p {
			lanes[ev.TID] = append(lanes[ev.TID], ev.Name)
		}
	}
	return lanes
}

// TestFusedStepsAreSampled: the CG vector operations reach the pool as
// labelled phase lists like any kernel, so with sampling and tracing on each
// fused step yields its two phase spans on every worker lane and one sampled
// operation in its symspmv_vec_* metrics.
func TestFusedStepsAreSampled(t *testing.T) {
	const p, n, nv = 3, 50, 2
	pool := parallel.NewPool(p)
	defer pool.Close()
	vecs := make([][]float64, 4)
	for i := range vecs {
		vecs[i] = make([]float64, n*nv)
		for j := range vecs[i] {
			vecs[i][j] = float64(i + j%5)
		}
	}
	obs.SetSampling(true)
	defer obs.SetSampling(false)
	defer obs.DisableTracing()

	for _, tc := range []struct {
		op   *op
		want []string
		run  func()
	}{
		{opCGStep, []string{"vec/cgstep-update", "vec/cgstep-direction"},
			func() { CGStep(pool, 0.5, 2, vecs[0][:n], vecs[1][:n], vecs[2][:n], vecs[3][:n]) }},
		{opMultiCGStep, []string{"vec/multicgstep-update", "vec/multicgstep-direction"},
			func() {
				MultiCGStep(pool, []float64{0.5, 0.25}, []float64{2, 3}, vecs[0], vecs[1], vecs[2], vecs[3], nv, make([]float64, nv))
			}},
	} {
		obs.EnableTracing(p, 64)
		ops0 := tc.op.Metrics.Ops.Value()
		tc.run()
		for tid, got := range workerSpans(t, p) {
			if !slices.Equal(got, tc.want) {
				t.Errorf("worker %d spans %v, want %v", tid, got, tc.want)
			}
		}
		if got := tc.op.Metrics.Ops.Value() - ops0; got != 1 {
			t.Errorf("%v: ops counter advanced by %d, want 1", tc.want, got)
		}
	}
}
