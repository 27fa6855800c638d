package format

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// classes returns a gen matrix in the three symmetry classes: as generated,
// its strict lower triangle as a skew-symmetric matrix, and a general matrix
// with its pattern whose upper values are not the mirrored lower ones.
func classes(t *testing.T, name string, scale float64) []*matrix.COO {
	t.Helper()
	sp, err := gen.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gen.Generate(sp, scale)
	if err != nil {
		t.Fatal(err)
	}
	skew := matrix.NewCOO(m.Rows, m.Cols, m.NNZ())
	skew.Symmetric, skew.Skew = true, true
	structural := matrix.NewCOO(m.Rows, m.Cols, 2*m.NNZ())
	for k, v := range m.Val {
		r, c := int(m.RowIdx[k]), int(m.ColIdx[k])
		structural.Add(r, c, v)
		if r != c {
			skew.Add(r, c, v)
			structural.Add(c, r, 0.5*v-1)
		}
	}
	skew.Normalize()
	structural.Normalize()
	return []*matrix.COO{m, skew, structural}
}

// TestEstimateMatchesBuilt: the tuner's pre-build estimate is the built
// kernel's account — every field but the name and the x span (the tuner's
// one span for every format) — for CSR and the four SSS methods on every
// symmetry class at p ∈ {1, 2, 4}. CSX-Sym's matrix stream is a deliberate
// size guess, so its MultBytes and MatrixBytes are left out; its reduction
// and everything else must match.
func TestEstimateMatchesBuilt(t *testing.T) {
	for _, name := range []string{"parabolic_fem", "consph", "powerlaw-s"} {
		for _, coo := range classes(t, name, 0.02) {
			from := core.FromCOO
			if !coo.Symmetric {
				from = core.FromCOOStructural
			}
			s, err := from(coo)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMatrix(s, coo)
			sh := NewShape(s, matrix.ComputeStats(coo))
			for _, p := range []int{1, 2, 4} {
				pool := parallel.NewPool(p)
				for _, f := range All() {
					d := f.Desc()
					if !d.Has(Tuned, s.Kind) {
						continue
					}
					b, err := Build(&m, f, pool, Options{})
					if err != nil {
						t.Fatal(err)
					}
					got, want := d.Estimate(sh, p), b.Cost(&m)
					got.Name, want.Name, got.XSpanBytes, want.XSpanBytes = "", "", 0, 0
					if f == CSXSym {
						got.MultBytes, want.MultBytes, got.MatrixBytes, want.MatrixBytes = 0, 0, 0, 0
					}
					if got != want {
						t.Errorf("%s %v %v p=%d:\nestimate %+v\nbuilt    %+v", name, s.Kind, f, p, got, want)
					}
				}
				pool.Close()
			}
		}
	}
}
