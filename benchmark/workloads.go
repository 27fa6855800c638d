package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	symspmv "repro"
	"repro/internal/gen"
	"repro/internal/matrix"
)

// counts are the fixed sample counts of one untraced run at the contract's
// --seconds (BENCHMARK.json run_seconds); another --seconds scales them
// linearly. Fixed counts, never a time budget: two commits measured with the
// same flags do identical work.
type counts struct {
	setup   int // Matrix Market file → kernel ready
	spmv    int // single MulVec / MulMat calls
	solve   int // CG solves to tolerance
	req     int // single-client HTTP solves
	windows int // throughput windows, one per interleaving round: round r takes share(n, r, windows) samples of every quantity
	perWin  int // completed requests per throughput window
}

// workload is one set of inputs plus the kernel configuration the end-to-end
// metrics pin (a pinned format keeps a timing-dependent autotune choice from
// adding run-to-run variance; the autotuner is measured as a layer instead).
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	suite       string  // gen suite spec the matrix is an analog of; "" for Poisson
	scale       float64 // suite scale (1.0 = the paper's size)
	poissonSide int     // GeneratePoisson2D side when suite == ""
	rcm         bool    // ReorderRCM is part of set-up
	format      symspmv.Format
	serveFormat string // the same format in internal/serve's spelling
	nv          int    // right-hand sides: MulVec/SolveCG at 1, MulMat/SolveCGBlock above

	counts counts
}

var workloads = []workload{
	{
		name:  "stencil-scattered",
		why:   "scrambled 2-D stencil, natural order, SSS-indexed: the reduction phase, its conflict index and the irregular x gather do the work",
		suite: "parabolic_fem", scale: 0.25,
		format: symspmv.SSSIndexed, serveFormat: "sss-idx", nv: 1,
		counts: counts{setup: 6, spmv: 600, solve: 24, req: 40, windows: 12, perWin: 8},
	},
	{
		name:  "fem-banded",
		why:   "block-banded FEM matrix, CSX-Sym: reduction nearly free, substructure detection and compressed decode dominate; no MulMat, so serve cannot coalesce",
		suite: "bmwcra_1", scale: 0.25,
		format: symspmv.CSXSym, serveFormat: "csx-sym", nv: 1,
		counts: counts{setup: 5, spmv: 600, solve: 30, req: 40, windows: 12, perWin: 8},
	},
	{
		name:  "stencil-rcm-colored",
		why:   "the stencil-scattered matrix after RCM, SSS-colored: zero reduction bytes but one barrier per colour; prices reordering and barriers on the same matrix",
		suite: "parabolic_fem", scale: 0.25, rcm: true,
		format: symspmv.SSSColored, serveFormat: "sss-color", nv: 1,
		counts: counts{setup: 6, spmv: 900, solve: 30, req: 40, windows: 12, perWin: 8},
	},
	{
		name:        "poisson-multirhs",
		why:         "cache-resident Poisson grid, four right-hand sides: register-blocked MulMat and hundreds of short block-CG iterations where pool handoffs and vector ops are half the time",
		poissonSide: 144,
		format:      symspmv.SSSIndexed, serveFormat: "sss-idx", nv: 4,
		counts: counts{setup: 12, spmv: 600, solve: 15, req: 40, windows: 12, perWin: 8},
	},
}

// tiny shrinks a workload to N≈2k and minimal counts, for the smoke test.
func (w workload) tiny() workload {
	if w.suite != "" {
		sp, _ := gen.SpecByName(w.suite) // the names in the table above exist; makeInputs reports one that does not
		w.scale = 2000 / float64(sp.Rows)
	} else {
		w.poissonSide = 45
	}
	w.counts = counts{setup: 2, spmv: 8, solve: 2, req: 2, windows: 2, perWin: 4}
	return w
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything the benchmark hands the program, all derived from the
// seed: the matrix (as a Matrix Market file, the form users bring it in),
// the operand of the timed multiplications, and the seeded solution x* with
// its right-hand side b = A·x*. Producing inputs is never timed.
type inputs struct {
	coo  *matrix.COO // the generated matrix, for the benchmark's own reference product
	path string      // Matrix Market file the program reads
	temp []string    // files to delete when the run ends
	n    int
	nnz  int       // logical nonzeros of the full operator
	x    []float64 // operand of the timed products, n·nv interleaved
	want []float64 // reference A·x
	star []float64 // x*, n·nv interleaved
	b    []float64 // A·x*
}

// makeInputs generates the workload's inputs from the seed and writes the
// matrix file into dir.
func makeInputs(w workload, seed int64, dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{path: filepath.Join(dir, fmt.Sprintf("%s.seed%d.mtx", w.name, seed))}
	in.temp = append(in.temp, in.path)
	if w.suite != "" {
		sp, err := gen.SpecByName(w.suite)
		if err != nil {
			return nil, err
		}
		// gen derives its random stream from the spec name, so a seeded name
		// gives every seed its own couplings and label scramble.
		sp.Name = fmt.Sprintf("%s/benchmark-seed-%d", w.suite, seed)
		in.coo, err = gen.Generate(sp, w.scale)
		if err != nil {
			return nil, err
		}
		if err := matrix.WriteMatrixMarketFile(in.path, in.coo); err != nil {
			return nil, err
		}
	} else {
		// The facade's generator hands out no triplets; the reference product
		// takes them from the file it wrote.
		a, err := symspmv.GeneratePoisson2D(w.poissonSide)
		if err != nil {
			return nil, err
		}
		if err := writeMatrix(a, in.path); err != nil {
			return nil, err
		}
		if in.coo, err = matrix.ReadMatrixMarketFile(in.path); err != nil {
			return nil, err
		}
	}
	in.n, in.nnz = in.coo.Rows, in.coo.LogicalNNZ()
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	in.x = randomVector(rng, in.n*w.nv)
	in.star = randomVector(rng, in.n*w.nv)
	in.want = make([]float64, in.n*w.nv)
	in.b = make([]float64, in.n*w.nv)
	refMul(in.coo, nil, in.x, in.want, w.nv)
	refMul(in.coo, nil, in.star, in.b, w.nv)
	return in, nil
}

// remove deletes the matrix files of the run; they are inputs, reproducible
// from the seed, and a checkout should not collect one per seed.
func (in *inputs) remove() {
	for _, p := range in.temp {
		_ = os.Remove(p) // a leftover input file is harmless
	}
}

func randomVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// randomVectorSeeded draws a vector from its own stream, for operands the
// inputs do not carry.
func randomVectorSeeded(seed int64, n int) []float64 {
	return randomVector(rand.New(rand.NewSource(seed*104729+31)), n)
}

// dotRef is the serial reference of a fused product's dot.
func dotRef(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// relClose reports |a − b| ≤ tol·max(|a|, |b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// refMul is the benchmark's own reference product y = A·x over the generated
// lower-triangular triplets, nv interleaved lanes, serial, sharing no code
// with the kernels under test. With perm != nil it computes the product of
// the symmetrically permuted matrix P·A·Pᵀ (perm[old] = new), the operator a
// reordered kernel represents.
func refMul(a *matrix.COO, perm []int32, x, y []float64, nv int) {
	for i := range y {
		y[i] = 0
	}
	for k, v := range a.Val {
		r, c := int(a.RowIdx[k]), int(a.ColIdx[k])
		if perm != nil {
			r, c = int(perm[r]), int(perm[c])
		}
		for l := 0; l < nv; l++ {
			y[r*nv+l] += v * x[c*nv+l]
			if r != c {
				y[c*nv+l] += v * x[r*nv+l]
			}
		}
	}
}

// maxRelDiff is ‖got − want‖∞ / ‖want‖∞.
func maxRelDiff(got, want []float64) float64 {
	var d, m float64
	for i := range want {
		d = math.Max(d, math.Abs(got[i]-want[i]))
		m = math.Max(m, math.Abs(want[i]))
	}
	if m == 0 {
		return d
	}
	return d / m
}

// lane extracts lane l of an nv-interleaved block.
func lane(v []float64, nv, l int) []float64 {
	if nv == 1 {
		return v
	}
	out := make([]float64, len(v)/nv)
	for i := range out {
		out[i] = v[i*nv+l]
	}
	return out
}
