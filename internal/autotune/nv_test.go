package autotune

import (
	"testing"

	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/gen"
	"repro/internal/perfmodel"
)

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
	}
}

func TestCacheRoundTripsNV(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	k := Key{Fingerprint: 0x1234, Machine: "m", NV: 8}
	want := Plan{Format: format.SSSColored, Threads: 4}
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

// TestReorderedCandidatesPricedForNV: an RCM variant is priced for the nv
// vectors of the search, as its natural twin is, so that at nv = 4 the
// decision table does not set one product beside four.
func TestReorderedCandidatesPricedForNV(t *testing.T) {
	sp, err := gen.SpecByName("powerlaw-s")
	if err != nil {
		t.Fatal(err)
	}
	m, err := gen.Generate(sp, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pl := perfmodel.Gainestown
	pl.XCachePerThreadBytes = 4 << 10 // x's span misses it, so the RCM variants enter
	type variant struct {
		f       format.ID
		reorder bool
	}
	priced := map[int]map[variant]float64{}
	for _, nv := range []int{1, 4} {
		d, err := Tune(problem(s, m), Options{
			MaxThreads: 4, Formats: []format.ID{format.SSSIndexed, format.CSR},
			TrialIters: 2, Rounds: 1, Platform: &pl, NV: nv,
		})
		if err != nil {
			t.Fatal(err)
		}
		priced[nv] = map[variant]float64{}
		for _, c := range d.Candidates {
			priced[nv][variant{c.Format, c.Reorder}] = c.ModeledSeconds
		}
	}
	reordered := 0
	for v, one := range priced[1] {
		four, ok := priced[4][v]
		switch {
		case !ok:
			t.Errorf("%v (RCM %v) is a candidate at nv=1 only", v.f, v.reorder)
		case four <= one:
			t.Errorf("%v (RCM %v) modeled at %.1f µs for one vector and %.1f µs for four", v.f, v.reorder, one*1e6, four*1e6)
		}
		if v.reorder {
			reordered++
		}
	}
	if reordered == 0 {
		t.Fatal("no RCM variant entered the search")
	}
}
