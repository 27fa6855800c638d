package cg

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// TestSolveTraceRoundTrip runs sampled fused CG solves — one right-hand side
// and a block of four, both the one loop with two coordinator handoffs per
// iteration: the fused product+dot and the step chain — and checks each
// recorded trace is valid Chrome trace_event JSON with both the coordinator's
// CG spans and the workers' kernel phase spans, an iteration-seconds sample
// per iteration, and a residual gauge holding the worst lane's last residual.
func TestSolveTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n, nv = 400, 4
	m := spdMatrix(rng, n, 4)
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(3)
	defer pool.Close()
	k := core.NewKernel(s, core.Indexed, pool)

	obs.SetSampling(true)
	t.Cleanup(func() {
		obs.SetSampling(false)
		obs.DisableTracing()
	})

	b := make([]float64, n*nv)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	opts := Options{MaxIter: 20, FixedIterations: true}
	for _, tc := range []struct {
		name   string
		kernel string // the prefix of the kernel's phase spans
		solve  func() (iters int, residuals []float64)
	}{
		{"Solve", "indexed", func() (int, []float64) {
			res, _ := Solve(k, pool, b[:n], make([]float64, n), opts)
			return res.Iterations, []float64{res.Residual}
		}},
		{"SolveBlock", "indexed-spmm", func() (int, []float64) {
			res, _ := SolveBlock(Operator{Mul: k.MulMat, MulDot: k.MulMatDot}, pool, b, make([]float64, n*nv), nv, opts)
			return res.Iterations, res.Residuals
		}},
	} {
		obs.EnableTracing(pool.Size(), 1<<10)
		samples := cgIterSeconds.Count()
		iters, residuals := tc.solve()
		if iters != 20 {
			t.Fatalf("%s: ran %d iterations, want 20", tc.name, iters)
		}
		if got := cgIterSeconds.Count() - samples; got != 20 {
			t.Errorf("%s: %d iteration-seconds samples, want 20", tc.name, got)
		}
		if worst := slices.Max(residuals); cgResidual.Value() != worst {
			t.Errorf("%s: residual gauge %g, want the worst lane's %g", tc.name, cgResidual.Value(), worst)
		}

		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Dur  float64        `json:"dur"`
				TID  int            `json:"tid"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: trace does not round-trip through encoding/json: %v", tc.name, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatalf("%s: trace is empty after a sampled 20-iteration solve", tc.name)
		}
		byName := map[string]int{}
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" {
				byName[e.Name]++
				if e.Dur < 0 {
					t.Fatalf("%s: span %q has negative duration %g", tc.name, e.Name, e.Dur)
				}
			}
		}
		// 20 iteration/spmv/vector triples on the coordinator lane.
		for _, want := range []string{"cg/iteration", "cg/spmv", "cg/vector"} {
			if byName[want] != 20 {
				t.Errorf("%s: %d %q spans, want 20 (all: %v)", tc.name, byName[want], want, byName)
			}
		}
		// The fused kernel runs multiply→reduce→dot per iteration on every
		// worker lane.
		for _, phase := range []string{"multiply", "reduce", "dot"} {
			if want := tc.kernel + "/" + phase; byName[want] == 0 {
				t.Errorf("%s: no %q spans recorded (all: %v)", tc.name, want, byName)
			}
		}
		obs.DisableTracing()
	}
}

// TestSolveJacobiIsTracedAndAllocFree: a Jacobi solve is Solve's loop, so a
// sampled one records the whole-solve cg/solve span with its iteration
// count, and its iterations allocate nothing — twice the iterations cost
// exactly the same allocations, for Solve and SolveJacobi alike, with and
// without the kernel's fused dot. (The loop SolveJacobi replaced recorded no
// cg/solve span and allocated ≈ 26 objects per iteration.)
func TestSolveJacobiIsTracedAndAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const n = 400
	m := spdMatrix(rng, n, 4)
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	sss := core.NewKernel(s, core.Indexed, pool)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	t.Run("traced", func(t *testing.T) {
		obs.SetSampling(true)
		obs.EnableTracing(pool.Size(), 1<<10)
		defer obs.SetSampling(false)
		defer obs.DisableTracing()
		res, _ := SolveJacobi(sss, s.DValues, pool, b, make([]float64, n), Options{MaxIter: 13, FixedIterations: true})
		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		var solves []any
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" && e.Name == "cg/solve" {
				solves = append(solves, e.Args["iterations"])
			}
		}
		if res.Iterations != 13 || len(solves) != 1 || solves[0] != float64(13) {
			t.Fatalf("%d iterations; cg/solve spans with iterations %v, want one with 13", res.Iterations, solves)
		}
	})

	for name, op := range map[string]MulVecer{
		"sss-indexed": sss,
		"csr":         csr.NewParallel(csr.FromCOO(m), pool),
	} {
		for solver, solve := range map[string]func(iters int){
			"cg": func(iters int) {
				_, _ = Solve(op, pool, b, make([]float64, n), Options{MaxIter: iters, FixedIterations: true})
			},
			"jacobi": func(iters int) {
				_, _ = SolveJacobi(op, s.DValues, pool, b, make([]float64, n), Options{MaxIter: iters, FixedIterations: true})
			},
		} {
			solve(1) // the kernel's own first-use buffers
			short := testing.AllocsPerRun(5, func() { solve(20) })
			long := testing.AllocsPerRun(5, func() { solve(40) })
			if long != short {
				t.Errorf("%s/%s: %v allocations for 40 iterations, %v for 20", name, solver, long, short)
			}
		}
	}
}
