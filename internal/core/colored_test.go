package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/reorder"
)

// suiteSSS generates one suite matrix at tiny scale and returns its SSS form
// plus the RCM-reordered variant (the colored schedule's intended regime).
func suiteSSS(t *testing.T, name string) (plain, rcm *SSS) {
	t.Helper()
	sp, err := gen.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gen.Generate(sp, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := reorder.RCM(m)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if plain, err = FromCOO(m); err != nil {
		t.Fatal(err)
	}
	if rcm, err = FromCOO(rm); err != nil {
		t.Fatal(err)
	}
	return plain, rcm
}

// TestColoredMatchesReferenceSuite cross-checks the colored kernel against
// the serial SSS reference over suite matrices at several thread counts, in
// generated row order and after RCM. Parallel execution reassociates the
// adds, so the match is to 1e-12 relative, like the reduction methods.
func TestColoredMatchesReferenceSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, name := range []string{"parabolic_fem", "consph"} {
		plain, rcm := suiteSSS(t, name)
		for _, v := range []struct {
			label string
			s     *SSS
		}{{"plain", plain}, {"rcm", rcm}} {
			n := v.s.N
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want := make([]float64, n)
			v.s.MulVec(x, want)
			for _, p := range []int{1, 2, 3, 8} {
				pool := parallel.NewPool(p)
				k := NewKernel(v.s, Colored, pool)
				got := make([]float64, n)
				// Run twice: phase 1 must assign every y[r], whatever the
				// first operation left in y.
				k.MulVec(x, got)
				k.MulVec(x, got)
				if d := maxRelDiff(want, got); d > 1e-12 {
					t.Errorf("%s/%s p=%d: colored differs from serial by %g", name, v.label, p, d)
				}
				pool.Close()
			}
		}
	}
}

// TestColoredZeroReductionPhases asserts the acceptance criterion through the
// phase-timing instrumentation: the colored kernel runs its two phases with
// zero time attributed to reduction, while the indexed kernel on the same
// matrix reports real reduction work.
func TestColoredZeroReductionPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randomSymmetric(t, rng, 3000, 6)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	n := s.N
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, n)

	kc := NewKernel(s, Colored, pool)
	pt := kc.TimedMulVec(x, y)
	if pt.Reduction != 0 {
		t.Errorf("colored: %v attributed to reduction, want zero by construction", pt.Reduction)
	}
	if want := kc.Colors(); pt.Phases != want {
		t.Errorf("colored: %d phases, want colors = %d", pt.Phases, want)
	}
	if pt.Compute <= 0 || pt.Wall < pt.Compute {
		t.Errorf("colored: implausible breakdown %+v", pt)
	}
	if kc.Colors() < 2 {
		t.Fatalf("random matrix colored with %d colors; the comparison is vacuous", kc.Colors())
	}

	ki := NewKernel(s, Indexed, pool)
	pti := ki.TimedMulVec(x, y)
	if pti.Reduction <= 0 {
		t.Errorf("indexed: no reduction time measured (%+v)", pti)
	}
	if pti.Phases != 2 {
		t.Errorf("indexed: %d phases, want 2", pti.Phases)
	}
	if ki.Colors() != 0 {
		t.Errorf("indexed kernel reports %d colors", ki.Colors())
	}
}

// TestColoredTrafficAccount: the cost account must show the eliminated
// reduction (zero bytes, zero flops, zero working-set overhead), move y once
// plus a read-modify-write per deferred element — counted here from the
// kernel's ranges, independently of the schedule — and price the second
// phase's barrier instead.
func TestColoredTrafficAccount(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randomSymmetric(t, rng, 2000, 5)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	k := NewKernel(s, Colored, pool)
	tr := k.Traffic()
	if tr.RedBytes != 0 || tr.RedFlops != 0 || tr.WorkingSetOverhead != 0 {
		t.Errorf("colored traffic carries reduction terms: %+v", tr)
	}
	if k.Colors() != 2 || tr.ExtraBarriers != 1 {
		t.Errorf("ExtraBarriers = %d over %d colors, want 1 over 2", tr.ExtraBarriers, k.Colors())
	}
	var deferred int64
	for tid := range k.Part.P() {
		for r := k.Part.Start[tid]; r < k.Part.End[tid]; r++ {
			for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
				if s.ColIdx[j] < k.Part.Start[tid] {
					deferred++
				}
			}
		}
	}
	n := int64(s.N)
	if want := 16*n + 16*deferred; deferred == 0 || tr.MultVectorBytes != want {
		t.Errorf("MultVectorBytes = %d, want 8n (x) + 8n (y) + 16·%d deferred = %d", tr.MultVectorBytes, deferred, want)
	}
	ki := NewKernel(s, Indexed, pool)
	if tri := ki.Traffic(); tri.ExtraBarriers != 0 {
		t.Errorf("indexed traffic has %d extra barriers", tri.ExtraBarriers)
	}
}

// TestColoredRaceStress hammers the colored MulVec, the fused MulVecDot and
// the SpMM concurrently-scheduled paths; its value is under `go test -race`,
// where any same-color write overlap the schedule failed to prevent shows up
// as a data race.
func TestColoredRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{257, 2000} {
		m := randomSymmetric(t, rng, n, 6)
		s, err := FromCOO(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{4, 8} {
			pool := parallel.NewPool(p)
			k := NewKernel(s, Colored, pool)
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			y := make([]float64, n)
			const nv = 3
			xw := make([]float64, n*nv)
			yw := make([]float64, n*nv)
			copy(xw, x)
			for it := 0; it < 8; it++ {
				k.MulVec(x, y)
				k.MulVecDot(x, y)
				k.MulMat(xw, yw, nv)
			}
			pool.Close()
		}
	}
}

// TestColoredEveryWidthAndThreadCount holds the colored kernel to the serial
// kernel, per lane, within 1e-12 at every lane width nv ∈ {1, 2, 3, 4, 8}
// (the register-blocked cells and the any-width one) and p ∈ {1, 2, 3, 4, 8},
// on a scrambled order whose ranges merge and deferred elements abound and on
// its RCM order, in every symmetry class (SpMM is symmetric-only). Each
// product runs three times over a y full of NaNs, and the repeats must agree
// bitwise: phase 1 assigns every element, and the schedule fixes the order.
func TestColoredEveryWidthAndThreadCount(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	plain, rcm := suiteSSS(t, "parabolic_fem")
	for _, base := range []*SSS{plain, rcm} {
		for _, kind := range []SymKind{Sym, Skew, Structural} {
			s := asKind(t, base, kind)
			widths := []int{1, 2, 3, 4, 8}
			if kind != Sym {
				widths = widths[:1]
			}
			for _, p := range []int{1, 2, 3, 4, 8} {
				pool := parallel.NewPool(p)
				k := NewKernel(s, Colored, pool)
				for _, nv := range widths {
					x := randomVector(rng, s.N*nv)
					want := refMulMat(s, x, nv)
					var first []float64
					for rep := 0; rep < 3; rep++ {
						got := make([]float64, s.N*nv)
						for i := range got {
							got[i] = math.NaN()
						}
						if nv == 1 {
							k.MulVec(x, got)
						} else if err := k.MulMat(x, got, nv); err != nil {
							t.Fatal(err)
						}
						if d := maxRelDiff(want, got); !(d <= 1e-12) {
							t.Fatalf("%v p=%d nv=%d: colored differs from serial by %g", kind, p, nv, d)
						}
						if first == nil {
							first = got
						} else if i := firstBitDiff(first, got); i >= 0 {
							t.Fatalf("%v p=%d nv=%d: repeat %d differs at %d: %v vs %v", kind, p, nv, rep, i, got[i], first[i])
						}
					}
				}
				pool.Close()
			}
		}
	}
}
