package cg

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// TestSolveTraceRoundTrip runs a sampled fused CG solve (two coordinator
// handoffs per iteration: the fused SpM×V+dot and the CGStep chain) and
// checks the recorded trace is valid Chrome trace_event JSON with both the
// coordinator's CG spans and the workers' kernel phase spans.
func TestSolveTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 400
	m := spdMatrix(rng, n, 4)
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(3)
	defer pool.Close()
	k := core.NewKernel(s, core.Indexed, pool)

	obs.SetSampling(true)
	obs.EnableTracing(pool.Size(), 1<<10)
	t.Cleanup(func() {
		obs.SetSampling(false)
		obs.DisableTracing()
	})

	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, _ := Solve(k, pool, b, x, Options{MaxIter: 20, FixedIterations: true})
	if res.Iterations != 20 {
		t.Fatalf("ran %d iterations, want 20", res.Iterations)
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
		t.Fatalf("trace does not round-trip through encoding/json: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace is empty after a sampled 20-iteration solve")
	}
	byName := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			byName[e.Name]++
			if e.Dur < 0 {
				t.Fatalf("span %q has negative duration %g", e.Name, e.Dur)
			}
		}
	}
	// 20 iteration/spmv/vector triples on the coordinator lane.
	for _, want := range []string{"cg/iteration", "cg/spmv", "cg/vector"} {
		if byName[want] != 20 {
			t.Errorf("%d %q spans, want 20 (all: %v)", byName[want], want, byName)
		}
	}
	// The fused kernel runs multiply→reduce→dot per iteration on every
	// worker lane (plus the initial r₀ MulVec).
	for _, want := range []string{"indexed/multiply", "indexed/reduce", "indexed/dot"} {
		if byName[want] == 0 {
			t.Errorf("no %q spans recorded (all: %v)", want, byName)
		}
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
