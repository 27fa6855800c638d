package cg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/csx"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// illScaled builds the diagonally dominant matrix of
// TestJacobiPCGConvergesFasterOnIllScaled, its diagonal wildly rescaled
// (D^{1/2} A D^{1/2} with D spread over three decades keeps it SPD but wrecks
// the condition number), and returns it with its diagonal.
func illScaled(rng *rand.Rand, n int) (*matrix.COO, []float64) {
	m := spdMatrix(rng, n, 3)
	scale := make([]float64, n)
	for i := range scale {
		scale[i] = math.Pow(10, 3*rng.Float64()) // 1..1000
	}
	for k := range m.Val {
		m.Val[k] *= scale[m.RowIdx[k]] * scale[m.ColIdx[k]]
	}
	return m, diagonal(m)
}

func diagonal(m *matrix.COO) []float64 {
	diag := make([]float64, m.Rows)
	for k := range m.Val {
		if m.RowIdx[k] == m.ColIdx[k] {
			diag[m.RowIdx[k]] = m.Val[k]
		}
	}
	return diag
}

// Jacobi on a unit diagonal is the identity preconditioner: z is r bit for
// bit, so SolveJacobi must be Solve, iterate for iterate, on the fused and
// the unfused path.
func TestJacobiOnUnitDiagonalIsSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	const n = 300
	m := spdMatrix(rng, n, 3)
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(3)
	defer pool.Close()
	k := core.NewKernel(s, core.Indexed, pool)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ones := unitDiagonal(n)
	for name, op := range map[string]MulVecer{"fused": k, "unfused": MulVecFunc(k.MulVec)} {
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		r1, err1 := Solve(op, pool, b, x1, Options{Tol: 1e-12})
		r2, err2 := SolveJacobi(op, ones, pool, b, x2, Options{Tol: 1e-12})
		if err1 != nil || err2 != nil || !r1.Converged {
			t.Fatalf("%s: %v %v %v", name, err1, err2, r1)
		}
		if r1.Iterations != r2.Iterations || math.Float64bits(r1.Residual) != math.Float64bits(r2.Residual) {
			t.Fatalf("%s: Solve %v, SolveJacobi %v", name, r1, r2)
		}
		if i := firstBitDiff(x1, x2); i >= 0 {
			t.Fatalf("%s: x[%d] = %g, Solve gives %g", name, i, x2[i], x1[i])
		}
	}
}

func TestJacobiPCGConvergesFasterOnIllScaled(t *testing.T) {
	// A diagonally dominant matrix with wildly varying diagonal scales:
	// Jacobi preconditioning must cut the iteration count substantially.
	rng := rand.New(rand.NewSource(67))
	const n = 600
	m, diag := illScaled(rng, n)
	pool := parallel.NewPool(2)
	defer pool.Close()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	xPlain := make([]float64, n)
	plain, errPlain := Solve(MulVecFunc(m.MulVec), pool, b, xPlain, Options{Tol: 1e-10, MaxIter: 20000})
	xPre := make([]float64, n)
	pre, errPre := SolveJacobi(MulVecFunc(m.MulVec), diag, pool, b, xPre, Options{Tol: 1e-10, MaxIter: 20000})
	if errPlain != nil || errPre != nil {
		t.Fatal(errPlain, errPre)
	}
	if !pre.Converged {
		t.Fatalf("Jacobi-PCG did not converge: %v", pre)
	}
	if plain.Converged && pre.Iterations >= plain.Iterations {
		t.Fatalf("Jacobi (%d iters) not faster than plain CG (%d iters) on ill-scaled system",
			pre.Iterations, plain.Iterations)
	}
	// Solutions must agree where both converged.
	if plain.Converged {
		for i := range xPre {
			d := math.Abs(xPre[i] - xPlain[i])
			if d > 1e-5*(1+math.Abs(xPlain[i])) {
				t.Fatalf("solutions differ at %d by %g", i, d)
			}
		}
	}
}

// A zero diagonal entry leaves its row unpreconditioned (inverse 1), exactly
// as NewJacobi did.
func TestSolveJacobiHandlesZeroDiagonal(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	op := MulVecFunc(func(x, y []float64) { // [[2 1 0] [1 3 1] [0 1 4]]
		y[0] = 2*x[0] + x[1]
		y[1] = x[0] + 3*x[1] + x[2]
		y[2] = x[1] + 4*x[2]
	})
	b := []float64{1, 2, 3}
	diag := []float64{2, 0, 4}
	x, xRef := make([]float64, 3), make([]float64, 3)
	res, err := SolveJacobi(op, diag, pool, b, x, Options{Tol: 1e-12})
	ref, _ := refSolvePCG(op, []float64{0.5, 1, 0.25}, pool, b, xRef, Options{Tol: 1e-12})
	if err != nil || !res.Converged {
		t.Fatalf("err=%v res=%v", err, res)
	}
	if res.Iterations != ref.Iterations || firstBitDiff(x, xRef) >= 0 {
		t.Fatalf("x = %v (%d iterations), reference %v (%d)", x, res.Iterations, xRef, ref.Iterations)
	}
}

// symOp adapts a CSX-Sym matrix, whose products take the pool, to the
// fused operator.
type symOp struct {
	sm   *csx.SymMatrix
	pool *parallel.Pool
}

func (o symOp) MulVec(x, y []float64)            { o.sm.MulVec(o.pool, x, y) }
func (o symOp) MulVecDot(x, y []float64) float64 { return o.sm.MulVecDot(o.pool, x, y) }

// recorder copies the solve's iterate x each time the solver calls the
// operator — once in the set-up and once at the head of every iteration — so
// two solves can be compared iterate by iterate. It keeps the operator's
// fused dot visible when the operator has one.
type recorder struct {
	op    MulVecer
	x     []float64
	iters [][]float64
}

func (r *recorder) MulVec(x, y []float64) { r.snap(); r.op.MulVec(x, y) }
func (r *recorder) snap()                 { r.iters = append(r.iters, slices.Clone(r.x)) }

type fusedRecorder struct{ *recorder }

func (r fusedRecorder) MulVecDot(x, y []float64) float64 {
	r.snap()
	return r.op.(MulVecDotter).MulVecDot(x, y)
}

func record(op MulVecer, x []float64) (MulVecer, *recorder) {
	r := &recorder{op: op, x: x}
	if _, ok := op.(MulVecDotter); ok {
		return fusedRecorder{r}, r
	}
	return r, r
}

// SolveJacobi against the loop it replaced: on every format that runs CG
// (the fused-dot SSS and CSX-Sym kernels and the unfused CSR one), at p = 1,
// 2, 3, on two suite analogs and the ill-scaled matrix, every iterate, the
// residual and the iteration count are bitwise the oracle's.
func TestJacobiMatchesReference(t *testing.T) {
	type system struct {
		name string
		m    *matrix.COO
		diag []float64
	}
	var systems []system
	for _, sm := range []struct {
		name  string
		scale float64
	}{{"parabolic_fem", 0.001}, {"consph", 0.006}} {
		spec, err := gen.SpecByName(sm.name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := gen.Generate(spec, sm.scale)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, system{sm.name, m, diagonal(m)})
	}
	m, diag := illScaled(rand.New(rand.NewSource(67)), 600)
	systems = append(systems, system{"ill-scaled", m, diag})

	for _, sys := range systems {
		if slices.Min(sys.diag) == slices.Max(sys.diag) {
			t.Fatalf("%s: constant diagonal", sys.name)
		}
		s, err := core.FromCOO(sys.m)
		if err != nil {
			t.Fatal(err)
		}
		n := s.N
		b := make([]float64, n)
		rng := rand.New(rand.NewSource(68))
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for _, p := range []int{1, 2, 3} {
			pool := parallel.NewPool(p)
			ops := map[string]MulVecer{
				"csr":     csr.NewParallel(csr.FromCOO(sys.m), pool),
				"csx-sym": symOp{csx.NewSym(s, p, core.Indexed, csx.DefaultOptions()), pool},
			}
			for _, method := range []core.ReductionMethod{core.Naive, core.EffectiveRanges, core.Indexed, core.Colored} {
				ops["sss-"+method.String()] = core.NewKernel(s, method, pool)
			}
			for name, op := range ops {
				label := fmt.Sprintf("%s/%s/p=%d", sys.name, name, p)
				opts := Options{Tol: 1e-10, MaxIter: 400}
				x, xRef := make([]float64, n), make([]float64, n)
				got, rec := record(op, x)
				want, recRef := record(MulVecFunc(op.MulVec), xRef)
				res, err := SolveJacobi(got, sys.diag, pool, b, x, opts)
				ref, errRef := refSolvePCG(want, refInvDiag(sys.diag), pool, b, xRef, opts)
				if err != nil || errRef != nil || !ref.Converged {
					t.Fatalf("%s: err=%v, reference err=%v %v", label, err, errRef, ref)
				}
				if res.Iterations != ref.Iterations || math.Float64bits(res.Residual) != math.Float64bits(ref.Residual) {
					t.Fatalf("%s: %v, reference %v", label, res, ref)
				}
				rec.iters = append(rec.iters, x)
				recRef.iters = append(recRef.iters, xRef)
				for it := range recRef.iters {
					if i := firstBitDiff(rec.iters[it], recRef.iters[it]); i >= 0 {
						t.Fatalf("%s: iterate %d differs at row %d: %g, reference %g",
							label, it, i, rec.iters[it][i], recRef.iters[it][i])
					}
				}
			}
			pool.Close()
		}
	}
}

// firstBitDiff returns the first index where a and b differ bitwise, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}
