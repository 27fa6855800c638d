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

// randomVec returns n standard-normal entries.
func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// jacobiCases yields plain CG (d nil) and a Jacobi inverse diagonal.
func jacobiCases(rng *rand.Rand, n int) map[string][]float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 / (1 + 10*rng.Float64())
	}
	return map[string][]float64{"plain": nil, "jacobi": d}
}

// precondition is the unfused z = d∘r (z = r for plain CG).
func precondition(d, r []float64) []float64 {
	z := slices.Clone(r)
	for i := range d {
		z[i] *= d[i]
	}
	return z
}

// SetUp must be bitwise identical to the unfused set-up sequence it
// replaces — r = b − ap, z = d∘r, p = z, then Dot for bᵀb, rᵀz and rᵀr.
func TestSubCopyDotsMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 7, 1000} {
		for _, p := range []int{1, 3, 8} {
			for name, d := range jacobiCases(rng, n) {
				pool := parallel.NewPool(p)
				b, ap := randomVec(rng, n), randomVec(rng, n)
				rWant := make([]float64, n)
				for i := range rWant {
					rWant[i] = b[i] - ap[i]
				}
				zWant := precondition(d, rWant)
				bbWant, rzWant, rrWant := Dot(pool, b, b), Dot(pool, rWant, zWant), Dot(pool, rWant, rWant)

				rGot, pGot := make([]float64, n), make([]float64, n)
				s := make([]float64, 3)
				SetUp(pool, d, rGot, pGot, b, ap, 1, s[0:1], s[1:2], s[2:3])
				bb, rz, rr := s[0], s[1], s[2]
				pool.Close()
				if bb != bbWant || rz != rzWant || rr != rrWant {
					t.Fatalf("%s n=%d p=%d: dots (%g,%g,%g), want (%g,%g,%g)", name, n, p, bb, rz, rr, bbWant, rzWant, rrWant)
				}
				if !slices.Equal(rGot, rWant) || !slices.Equal(pGot, zWant) {
					t.Fatalf("%s n=%d p=%d: vectors differ", name, n, p)
				}
			}
		}
	}
}

// CGStep must be bitwise identical to the unfused axpy/axpy/dot/xpay chain
// of one CG iteration — with z = d∘r and its dot in between for Jacobi —
// spinning and oversubscribed (GOMAXPROCS 1) alike.
func TestCGStepMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 9, 1000} {
		for _, p := range []int{1, 4, 8} {
			for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
				for name, d := range jacobiCases(rng, n) {
					prev := runtime.GOMAXPROCS(procs)
					pool := parallel.NewPool(p)
					pv, ap, x, r := randomVec(rng, n), randomVec(rng, n), randomVec(rng, n), randomVec(rng, n)
					alpha := 0.37
					rzOld := Dot(pool, r, precondition(d, r))

					// Unfused reference on copies.
					xw, rw, pw := slices.Clone(x), slices.Clone(r), slices.Clone(pv)
					for i := range xw {
						xw[i] += alpha * pw[i]
						rw[i] += -alpha * ap[i]
					}
					zw := precondition(d, rw)
					rzWant, rrWant := Dot(pool, rw, zw), Dot(pool, rw, rw)
					for i := range pw {
						pw[i] = zw[i] + rzWant/rzOld*pw[i]
					}

					var rzGot, rrGot float64
					if d == nil {
						rrGot = CGStep(pool, alpha, rzOld, pv, ap, x, r)
						rzGot = rrGot
					} else {
						s := []float64{alpha, rzOld, 0, 0}
						BindStep(pool, d, pv, ap, x, r, 1)(s[0:1], s[1:2], s[2:3], s[3:4])
						rzGot, rrGot = s[2], s[3]
					}
					pool.Close()
					runtime.GOMAXPROCS(prev)
					if rzGot != rzWant || rrGot != rrWant {
						t.Fatalf("%s n=%d p=%d GOMAXPROCS=%d: rz, rr = %g, %g, want %g, %g",
							name, n, p, procs, rzGot, rrGot, rzWant, rrWant)
					}
					if !slices.Equal(x, xw) || !slices.Equal(r, rw) || !slices.Equal(pv, pw) {
						t.Fatalf("%s n=%d p=%d GOMAXPROCS=%d: vectors differ", name, n, p, procs)
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
