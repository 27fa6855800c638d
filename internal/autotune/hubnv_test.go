package autotune

import (
	"math/rand"
	"repro/internal/format"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// hubby builds an SPD matrix where a handful of columns are touched by
// nearly every row — strong degree skew.
func hubby(t testing.TB, n int) (*matrix.COO, *core.SSS) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	c := matrix.NewCOO(n, n, 6*n)
	c.Symmetric = true
	rowAbs := make([]float64, n)
	add := func(r, cc int, v float64) {
		c.Add(r, cc, v)
		if v < 0 {
			v = -v
		}
		rowAbs[r] += v
		rowAbs[cc] += v
	}
	for r := 4; r < n; r++ {
		for h := 0; h < 4; h++ {
			add(r, h, rng.NormFloat64())
		}
		add(r, 4+rng.Intn(r-3), rng.NormFloat64())
	}
	for r := 0; r < n; r++ {
		c.Add(r, r, rowAbs[r]+1)
	}
	c.Normalize()
	s, err := core.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

func TestTuneGeneratesHubCandidates(t *testing.T) {
	m, s := hubby(t, 600)
	d, err := Tune(problem(s, m), Options{
		MaxThreads: 2, TrialIters: 2, Rounds: 1,
		Formats: []format.ID{format.SSSIndexed, format.SSSColored},
	})
	if err != nil {
		t.Fatal(err)
	}
	sawHub := false
	for _, c := range d.Candidates {
		if c.Plan.Hub {
			sawHub = true
			if !strings.Contains(c.Plan.String(), "+hub") {
				t.Fatalf("hub plan renders as %q", c.Plan.String())
			}
		}
	}
	if !sawHub {
		t.Fatalf("no hub candidates on a degree-skewed matrix: %s", d.Report())
	}
	if d.Features.DegreeSkew < 8 {
		t.Fatalf("DegreeSkew = %g, expected strong skew", d.Features.DegreeSkew)
	}
}

func TestTuneNoHubOnMesh(t *testing.T) {
	m, s := poisson(t, 24)
	d, err := Tune(problem(s, m), Options{
		MaxThreads: 2, TrialIters: 2, Rounds: 1,
		Formats: []format.ID{format.SSSIndexed},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Candidates {
		if c.Plan.Hub {
			t.Fatalf("hub candidate generated for a uniform mesh: %v", c.Plan)
		}
	}
}

func TestTuneMultiRHS(t *testing.T) {
	m, s := poisson(t, 20)
	d, err := Tune(problem(s, m), Options{
		MaxThreads: 2, TrialIters: 2, Rounds: 1, NV: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Plan.Format.Desc().Has(format.MulMat, core.Sym) {
		t.Fatalf("NV=4 chose an SpMM-incapable format: %v", d.Plan)
	}
	for _, c := range d.Candidates {
		if !c.Plan.Format.Desc().Has(format.MulMat, core.Sym) {
			t.Fatalf("NV=4 examined %v, which has no SpMM kernel", c.Plan.Format)
		}
		if c.Plan.Reorder {
			t.Fatalf("NV=4 generated a reordered plan (no SpMM path): %v", c.Plan)
		}
	}
}

func TestCacheRoundTripsHubAndNV(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	k := Key{Fingerprint: 0x1234, Machine: "m", NV: 8}
	want := Plan{Format: format.SSSColored, Threads: 4, Hub: true}
	if err := st.Save(k, want, 42); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Load(k)
	if err != nil || !ok || got != want {
		t.Fatalf("Load = %v, %v, %v; want %v", got, ok, err, want)
	}
	// The SpMV entry (NV unset) of the same matrix is a distinct file.
	if _, ok, _ := st.Load(Key{Fingerprint: 0x1234, Machine: "m"}); ok {
		t.Fatal("NV=8 entry answered an SpMV lookup")
	}
}
