package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/parallel"
	"repro/internal/partition"
)

// The textbook lower-row loops the generated cells replaced, kept verbatim
// from PR 21 as the oracle: the six SpM×V bodies and the three generic-width
// SpMM bodies. The colored ones are written in the two-phase schedule's term
// order: phase 1 assigns each row sum from the diagonal over the columns at or
// past the range's first row, phase 2 adds the columns below it onto y[r].
// Every generated cell must produce bitwise what these produce. (The
// register-blocked widths never had a reference of their own: their contract
// is "per lane, the SpM×V body", which is how they are held here.)

func refMultiplyNaive(k *Kernel, tid int, x []float64) {
	s := k.S
	local := k.LV.Vecs[tid]
	for r := k.Part.Start[tid]; r < k.Part.End[tid]; r++ {
		xr := x[r]
		acc := s.DValues[r] * xr
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			c := s.ColIdx[j]
			v := s.Val[j]
			acc += v * x[c]
			local[c] += v * xr
		}
		local[r] += acc
	}
}

func refMultiplyEffective(k *Kernel, tid int, x, y []float64) {
	s := k.S
	local := k.LV.Vecs[tid]
	startT := k.Part.Start[tid]
	for r := k.Part.Start[tid]; r < k.Part.End[tid]; r++ {
		xr := x[r]
		acc := s.DValues[r] * xr
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			c := s.ColIdx[j]
			v := s.Val[j]
			acc += v * x[c]
			if c >= startT {
				y[c] += v * xr
			} else {
				local[c] += v * xr
			}
		}
		y[r] = acc
	}
}

func refColored(k *Kernel, tid int, cross bool, x, y []float64) {
	s := k.S
	startT := k.Part.Start[tid]
	for r := startT; r < k.Part.End[tid]; r++ {
		xr := x[r]
		acc := s.DValues[r] * xr
		if cross {
			acc = y[r]
		}
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			c := s.ColIdx[j]
			v := s.Val[j]
			if (c < startT) == cross {
				acc += v * x[c]
				y[c] += v * xr
			}
		}
		y[r] = acc
	}
}

func refMultiplyNaiveKind(k *Kernel, tid int, x []float64) {
	s := k.S
	uval, sign := s.kindUval()
	dv := s.DValues
	local := k.LV.Vecs[tid]
	for r := k.Part.Start[tid]; r < k.Part.End[tid]; r++ {
		xr := x[r]
		acc := 0.0
		if dv != nil {
			acc = dv[r] * xr
		}
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			c := s.ColIdx[j]
			acc += s.Val[j] * x[c]
			local[c] += sign * uval[j] * xr
		}
		local[r] += acc
	}
}

func refMultiplyEffectiveKind(k *Kernel, tid int, x, y []float64) {
	s := k.S
	uval, sign := s.kindUval()
	dv := s.DValues
	local := k.LV.Vecs[tid]
	startT := k.Part.Start[tid]
	for r := k.Part.Start[tid]; r < k.Part.End[tid]; r++ {
		xr := x[r]
		acc := 0.0
		if dv != nil {
			acc = dv[r] * xr
		}
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			c := s.ColIdx[j]
			acc += s.Val[j] * x[c]
			if c >= startT {
				y[c] += sign * uval[j] * xr
			} else {
				local[c] += sign * uval[j] * xr
			}
		}
		y[r] = acc
	}
}

func refColoredKind(k *Kernel, tid int, cross bool, x, y []float64) {
	s := k.S
	uval, sign := s.kindUval()
	dv := s.DValues
	startT := k.Part.Start[tid]
	for r := startT; r < k.Part.End[tid]; r++ {
		xr := x[r]
		acc := 0.0
		if cross {
			acc = y[r]
		} else if dv != nil {
			acc = dv[r] * xr
		}
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			c := s.ColIdx[j]
			if (c < startT) == cross {
				acc += s.Val[j] * x[c]
				y[c] += sign * uval[j] * xr
			}
		}
		y[r] = acc
	}
}

func refMulMatNaive(k *Kernel, tid, nv int) {
	s := k.S
	x := k.curX
	local := k.LV.Vecs[tid]
	for r := k.Part.Start[tid]; r < k.Part.End[tid]; r++ {
		ri := int(r) * nv
		d := s.DValues[r]
		for v := 0; v < nv; v++ {
			local[ri+v] += d * x[ri+v]
		}
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			ci := int(s.ColIdx[j]) * nv
			a := s.Val[j]
			for v := 0; v < nv; v++ {
				local[ri+v] += a * x[ci+v]
				local[ci+v] += a * x[ri+v]
			}
		}
	}
}

func refMulMatEffective(k *Kernel, tid, nv int) {
	s := k.S
	x, y := k.curX, k.curY
	local := k.LV.Vecs[tid]
	startT := int(k.Part.Start[tid])
	for r := k.Part.Start[tid]; r < k.Part.End[tid]; r++ {
		ri := int(r) * nv
		d := s.DValues[r]
		for v := 0; v < nv; v++ {
			y[ri+v] = d * x[ri+v]
		}
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			c := int(s.ColIdx[j])
			ci := c * nv
			a := s.Val[j]
			if c >= startT {
				for v := 0; v < nv; v++ {
					y[ri+v] += a * x[ci+v]
					y[ci+v] += a * x[ri+v]
				}
			} else {
				for v := 0; v < nv; v++ {
					y[ri+v] += a * x[ci+v]
					local[ci+v] += a * x[ri+v]
				}
			}
		}
	}
}

func refMulMatColored(k *Kernel, tid int, cross bool, nv int) {
	s := k.S
	x, y := k.curX, k.curY
	startT := k.Part.Start[tid]
	for r := startT; r < k.Part.End[tid]; r++ {
		ri := int(r) * nv
		xr := x[ri : ri+nv]
		yr := y[ri : ri+nv]
		if !cross {
			for v := 0; v < nv; v++ {
				yr[v] = s.DValues[r] * xr[v]
			}
		}
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			if (s.ColIdx[j] < startT) != cross {
				continue
			}
			ci := int(s.ColIdx[j]) * nv
			a := s.Val[j]
			xc := x[ci : ci+nv]
			yc := y[ci : ci+nv]
			for v := 0; v < nv; v++ {
				yr[v] += a * xc[v]
				yc[v] += a * xr[v]
			}
		}
	}
}

// A multiply is what stands in for the multiply phases of a list: a call per
// thread id (local-vector methods) or per thread id and phase (colored).
type multiply struct {
	rows   func(tid int)
	colour func(tid int, cross bool)
}

// refCell returns the oracle of the cell k's list dispatches to at width nv
// (1 = SpM×V), generatedAnyNV the generated generic-width cell, which the
// kernel itself only reaches at widths other than 2, 4 and 8.
func refCell(k *Kernel, nv int) multiply {
	kind := k.S.Kind != Sym
	switch {
	case k.Method == Colored && nv > 1:
		return multiply{colour: func(tid int, cross bool) { refMulMatColored(k, tid, cross, nv) }}
	case k.Method == Colored && kind:
		return multiply{colour: func(tid int, cross bool) { refColoredKind(k, tid, cross, k.curX, k.curY) }}
	case k.Method == Colored:
		return multiply{colour: func(tid int, cross bool) { refColored(k, tid, cross, k.curX, k.curY) }}
	case k.Method == Naive && nv > 1:
		return multiply{rows: func(tid int) { refMulMatNaive(k, tid, nv) }}
	case k.Method == Naive && kind:
		return multiply{rows: func(tid int) { refMultiplyNaiveKind(k, tid, k.curX) }}
	case k.Method == Naive:
		return multiply{rows: func(tid int) { refMultiplyNaive(k, tid, k.curX) }}
	case nv > 1:
		return multiply{rows: func(tid int) { refMulMatEffective(k, tid, nv) }}
	case kind:
		return multiply{rows: func(tid int) { refMultiplyEffectiveKind(k, tid, k.curX, k.curY) }}
	}
	return multiply{rows: func(tid int) { refMultiplyEffective(k, tid, k.curX, k.curY) }}
}

func generatedAnyNV(k *Kernel, nv int) multiply {
	switch k.Method {
	case Colored:
		return multiply{colour: func(tid int, cross bool) { k.mulMatColoredT(tid, cross, nv) }}
	case Naive:
		return multiply{rows: func(tid int) { k.mulMatNaiveT(tid, nv) }}
	}
	return multiply{rows: func(tid int) { k.mulMatEffectiveT(tid, nv) }}
}

// runWith runs list serially — phase by phase, thread ids ascending — with m
// in place of the multiply phases: the first phase of a local-vector list,
// the NumColors phases (phase 1, then phase 2) of a colored one. Every method
// here is deterministic, so a serial run is bitwise a pool run.
func runWith(k *Kernel, list *parallel.PhaseList, m multiply, x, y []float64) {
	k.curX, k.curY = x, y
	defer func() { k.curX, k.curY = nil, nil }()
	for i, ph := range list.Phases {
		for tid := 0; tid < k.p; tid++ {
			switch {
			case m.colour != nil && i < k.sched.NumColors:
				m.colour(tid, i == 1)
			case m.rows != nil && i == 0:
				m.rows(tid)
			default:
				ph.Fn(tid)
			}
		}
	}
}

func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func randomVector(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// asKind reinterprets a symmetric SSS as the given class on the same index
// structure: Skew drops the diagonal, Structural gets upper values of its own.
func asKind(t testing.TB, s *SSS, kind SymKind) *SSS {
	t.Helper()
	out := *s
	out.Kind = kind
	switch kind {
	case Skew:
		out.DValues = nil
	case Structural:
		out.UVal = make([]float64, len(s.Val))
		for j, v := range s.Val {
			out.UVal[j] = 0.25 - 0.5*v
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	return &out
}

type oracleFixture struct {
	name string
	s    *SSS
}

// oracleFixtures: the conformance shapes (n = 61, four off-diagonals a row,
// one matrix per class), a matrix with fewer rows than most thread counts, and
// two suite matrices — one scattered, one RCM-banded — in all three classes.
func oracleFixtures(t *testing.T) []oracleFixture {
	rng := rand.New(rand.NewSource(22))
	var out []oracleFixture
	add := func(name string, s *SSS, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, oracleFixture{name, s})
	}
	s, err := FromCOO(randomSymmetric(t, rng, 61, 4))
	add("conformance/symmetric", s, err)
	s, err = FromCOO(randomSkew(t, rng, 61, 4))
	add("conformance/skew-symmetric", s, err)
	s, err = FromCOOStructural(randomStructural(t, rng, 61, 4))
	add("conformance/structurally-symmetric", s, err)
	s, err = FromCOO(randomSymmetric(t, rng, 3, 2))
	add("three-rows/symmetric", s, err)
	scattered, _ := suiteSSS(t, "parabolic_fem")
	_, banded := suiteSSS(t, "bmwcra_1")
	for _, fx := range []oracleFixture{{"parabolic_fem", scattered}, {"bmwcra_1-rcm", banded}} {
		for _, kind := range []SymKind{Sym, Skew, Structural} {
			add(fx.name+"/"+kind.String(), asKind(t, fx.s, kind), nil)
		}
	}
	return out
}

// checkCells holds every cell k dispatches to — SpM×V, the fused dot and, on
// a symmetric matrix, SpMM at nv ∈ {2, 3, 4, 8} — to its oracle, bitwise.
func checkCells(t *testing.T, rng *rand.Rand, k *Kernel, label string) {
	t.Helper()
	n := k.S.N
	x := randomVector(rng, n)
	got, want := make([]float64, n), make([]float64, n)

	// Twice: the second product also proves the reduction left the local
	// vectors zeroed exactly as the oracle's run does.
	for rep := 0; rep < 2; rep++ {
		k.MulVec(x, got)
		runWith(k, k.plain, refCell(k, 1), x, want)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("%s: MulVec[%d] = %v, the textbook loop gives %v", label, i, got[i], want[i])
		}
	}

	gotDot := k.MulVecDot(x, got)
	runWith(k, k.dot[1], refCell(k, 1), x, want)
	wantDot := 0.0
	for tid := 0; tid < k.p; tid++ {
		wantDot += k.dotPart[1][tid*DotStride]
	}
	if i := firstBitDiff(got, want); i >= 0 || math.Float64bits(gotDot) != math.Float64bits(wantDot) {
		t.Fatalf("%s: MulVecDot = %v (first differing element %d), the textbook loop gives %v", label, gotDot, i, wantDot)
	}

	if k.S.Kind != Sym {
		return
	}
	col, colOut := make([]float64, n), make([]float64, n)
	for _, nv := range []int{2, 3, 4, 8} {
		xm := randomVector(rng, n*nv)
		gotM, wantM := make([]float64, n*nv), make([]float64, n*nv)
		if err := k.MulMat(xm, gotM, nv); err != nil {
			t.Fatalf("%s nv=%d: %v", label, nv, err)
		}
		list := k.matList(nv)
		if nv == 3 {
			// The kernel ran the generic-width cell.
			runWith(k, list, refCell(k, nv), xm, wantM)
		} else {
			// The kernel ran a register-blocked cell: per lane it is the
			// SpM×V body.
			for v := 0; v < nv; v++ {
				for i := range col {
					col[i] = xm[i*nv+v]
				}
				runWith(k, k.plain, refCell(k, 1), col, colOut)
				for i := range colOut {
					wantM[i*nv+v] = colOut[i]
				}
			}
		}
		if i := firstBitDiff(gotM, wantM); i >= 0 {
			t.Fatalf("%s nv=%d: MulMat[%d] = %v, the textbook loop gives %v", label, nv, i, gotM[i], wantM[i])
		}
		// The generic-width cell at this width, which no dispatch reaches
		// when a blocked cell exists.
		runWith(k, list, generatedAnyNV(k, nv), xm, gotM)
		runWith(k, list, refCell(k, nv), xm, wantM)
		if i := firstBitDiff(gotM, wantM); i >= 0 {
			t.Fatalf("%s nv=%d: generic-width cell [%d] = %v, the textbook loop gives %v", label, nv, i, gotM[i], wantM[i])
		}
	}
}

// TestGeneratedCellsMatchTextbookLoop is the bit-equality oracle: every
// generated cell against the loop it replaced, over the fixtures × the three
// classes × p ∈ {1, 2, 3, 4, 7} × every method that has cells, through the
// pool (so -race sees the split writes land where the partition says).
func TestGeneratedCellsMatchTextbookLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, fx := range oracleFixtures(t) {
		for _, p := range []int{1, 2, 3, 4, 7} {
			pool := parallel.NewPool(p)
			for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
				k := NewKernel(fx.s, method, pool)
				checkCells(t, rng, k, fmt.Sprintf("%s p=%d %v", fx.name, p, method))
			}
			pool.Close()
		}
	}
}

// kernelOver builds the kernel NewKernel would, over a partition chosen by
// the test instead of the nnz-balanced one.
func kernelOver(s *SSS, method ReductionMethod, pool *parallel.Pool, part *partition.RowPartition) *Kernel {
	k := &Kernel{S: s, Method: method, Part: part, pool: pool, p: pool.Size()}
	var touched [][]int32
	if method == Indexed {
		touched = TouchedColumns(s, part, pool)
	}
	if method != Naive {
		k.splitEnd = splitEnds(s, part)
	}
	k.LV = NewLocalVectors(s.N, part, method, touched)
	k.plain = k.assemble(nil, OpSpMV, 1)
	return k
}

// TestSplitPointEdgeCases drives the split write policy over a hand-built
// matrix and partition in which every position of the effective-range
// boundary occurs:
//
//	thread 0 rows [0,4)   startT = 0: the local loop never runs
//	thread 1 rows [4,4)   an empty partition
//	thread 2 rows [4,7)   row 4 {0,1,3} entirely below startT = 4
//	                      row 5 {3,4}   split after the first element
//	                      row 6 {4,5}   entirely at or above startT
//	thread 3 rows [7,10)  row 7 {}      an empty row at the partition's edge
//	                      row 8 {1,2,7} split before the last element
//	                      row 9 {}      an empty last row
//	thread 4 rows [10,14) row 11 {10}   no local write between two rows with
//	                                    them: it stays on the split loop
//	                      row 13 {11,12} the one row past the frontier
//	thread 5 rows [14,17) row 16 {0,15} the only local write, in the last row
//
// The local frontiers are therefore 0, 4, 6, 9, 13 and 17.
func TestSplitPointEdgeCases(t *testing.T) {
	rows := [][]int32{{}, {0}, {}, {0, 2}, {0, 1, 3}, {3, 4}, {4, 5}, {}, {1, 2, 7}, {},
		{3}, {10}, {4, 11}, {11, 12}, {}, {14}, {0, 15}}
	rng := rand.New(rand.NewSource(24))
	s := &SSS{N: len(rows), DValues: randomVector(rng, len(rows)), RowPtr: []int32{0}}
	for _, cols := range rows {
		s.ColIdx = append(s.ColIdx, cols...)
		s.RowPtr = append(s.RowPtr, int32(len(s.ColIdx)))
	}
	s.Val = randomVector(rng, len(s.ColIdx))
	part := &partition.RowPartition{Start: []int32{0, 4, 4, 7, 10, 14}, End: []int32{4, 4, 7, 10, 14, 17}}
	if err := part.Validate(s.N); err != nil {
		t.Fatal(err)
	}
	if got, want := splitEnds(s, part), []int32{0, 4, 6, 9, 13, 17}; !slices.Equal(got, want) {
		t.Fatalf("local frontiers %v, want %v", got, want)
	}
	pool := parallel.NewPool(part.P())
	defer pool.Close()
	for _, kind := range []SymKind{Sym, Skew, Structural} {
		sk := asKind(t, s, kind)
		x := randomVector(rng, sk.N)
		serial := make([]float64, sk.N)
		sk.MulVec(x, serial)
		for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed} {
			k := kernelOver(sk, method, pool, part)
			label := fmt.Sprintf("%v %v", kind, method)
			checkCells(t, rng, k, label)
			y := make([]float64, sk.N)
			k.MulVec(x, y)
			if d := maxRelDiff(serial, y); d > 1e-12 {
				t.Errorf("%s: differs from the serial kernel by %g", label, d)
			}
		}
	}
}

// TestTrajectoriesMatchTextbookLoop runs 16 iterations of conjugate gradients
// twice — products by the generated cells through the pool, and by the oracle
// — using the fused product-and-dot, and holds every iterate to bitwise
// equality: a difference in one product's rounding would grow from there.
func TestTrajectoriesMatchTextbookLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	plain, rcm := suiteSSS(t, "parabolic_fem")
	pool := parallel.NewPool(3)
	defer pool.Close()
	for _, s := range []*SSS{plain, rcm} {
		b := randomVector(rng, s.N)
		for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
			k := NewKernel(s, method, pool)
			k.MulVecDot(b, make([]float64, s.N)) // assembles k.dot[1]
			ref := refCell(k, 1)
			generated := cgIterates(b, 16, k.MulVecDot)
			textbook := cgIterates(b, 16, func(x, y []float64) float64 {
				runWith(k, k.dot[1], ref, x, y)
				dot := 0.0
				for tid := 0; tid < k.p; tid++ {
					dot += k.dotPart[1][tid*DotStride]
				}
				return dot
			})
			for it := range generated {
				if i := firstBitDiff(generated[it], textbook[it]); i >= 0 {
					t.Fatalf("%v: CG iterate %d differs at element %d: %v, the textbook loop gives %v",
						method, it, i, generated[it][i], textbook[it][i])
				}
			}
		}
	}
}

// cgIterates returns x₁..x_iters of unpreconditioned CG from x₀ = 0, with
// mulDot computing y = A·x and returning xᵀy.
func cgIterates(b []float64, iters int, mulDot func(x, y []float64) float64) [][]float64 {
	n := len(b)
	x, r, p, ap := make([]float64, n), append([]float64(nil), b...), append([]float64(nil), b...), make([]float64, n)
	rr := 0.0
	for _, v := range r {
		rr += v * v
	}
	var out [][]float64
	for it := 0; it < iters; it++ {
		alpha := rr / mulDot(p, ap)
		next := 0.0
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			next += r[i] * r[i]
		}
		beta := next / rr
		rr = next
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		out = append(out, append([]float64(nil), x...))
	}
	return out
}

// TestValidateGuardsTheKernels: the two faults the generated loops cannot
// survive — a row whose columns are not ascending, a row pointer past the
// column array — and the other structural ones are named by Validate with
// their row, and NewKernel refuses the matrix with that error before any body
// can run on it.
func TestValidateGuardsTheKernels(t *testing.T) {
	valid := func() *SSS {
		return &SSS{N: 4, DValues: []float64{1, 2, 3, 4},
			RowPtr: []int32{0, 0, 1, 3, 4}, ColIdx: []int32{0, 0, 1, 2}, Val: []float64{5, 6, 7, 8}}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("the valid matrix is refused: %v", err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	for _, c := range []struct {
		name    string
		row     int
		corrupt func(s *SSS)
	}{
		{"unsorted row", 2, func(s *SSS) { s.ColIdx[1], s.ColIdx[2] = 1, 0 }},
		{"duplicate column", 2, func(s *SSS) { s.ColIdx[2] = 0 }},
		{"column on the diagonal", 1, func(s *SSS) { s.ColIdx[0] = 1 }},
		{"negative column", 3, func(s *SSS) { s.ColIdx[3] = -1 }},
		{"row pointer past ColIdx", 3, func(s *SSS) { s.RowPtr[4] = 5 }},
		{"row pointer past ColIdx mid-matrix", 1, func(s *SSS) { s.RowPtr[2] = 9 }},
		{"decreasing row pointers", 2, func(s *SSS) { s.RowPtr[3] = 0 }},
		{"first row pointer", 0, func(s *SSS) { s.RowPtr[0] = 1 }},
		{"stored elements past the last row", 3, func(s *SSS) { s.ColIdx = append(s.ColIdx, 0); s.Val = append(s.Val, 1) }},
		{"short RowPtr", -1, func(s *SSS) { s.RowPtr = s.RowPtr[:4] }},
		{"Val shorter than ColIdx", -1, func(s *SSS) { s.Val = s.Val[:3] }},
		{"symmetric without a diagonal", -1, func(s *SSS) { s.DValues = nil }},
		{"skew with a diagonal", -1, func(s *SSS) { s.Kind = Skew }},
		{"structural without upper values", -1, func(s *SSS) { s.Kind = Structural }},
	} {
		s := valid()
		c.corrupt(s)
		err := s.Validate()
		var inv *invalidSSS
		if !errors.As(err, &inv) || inv.Row != c.row {
			t.Errorf("%s: Validate = %v, want an *invalidSSS naming row %d", c.name, err, c.row)
			continue
		}
		for _, method := range []ReductionMethod{Naive, Indexed, Colored} {
			func() {
				defer func() {
					if got, _ := recover().(error); got == nil || got.Error() != err.Error() {
						t.Errorf("%s: NewKernel(%v) panicked with %v, want Validate's error %q", c.name, method, got, err)
					}
				}()
				NewKernel(s, method, pool)
			}()
		}
	}
}
