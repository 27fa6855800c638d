package autotune

import (
	"testing"

	"repro/internal/core"
	"repro/internal/format"
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
		if c.Plan.Reorder {
			t.Fatalf("NV=4 generated a reordered plan (no SpMM path): %v", c.Plan)
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
