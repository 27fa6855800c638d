package autotune

import (
	"math/rand"
	"os"
	"repro/internal/format"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/perfmodel"
)

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// TestColoredBlowUpGuard is the pricing-bugfix regression: on a power-law
// graph every block's write set reaches the hub columns, the conflict graph
// is essentially complete, and the colored schedule degenerates to one color
// per block. The model stage must reject that candidate outright instead of
// letting the underpriced barrier chain reach the trials.
func TestColoredBlowUpGuard(t *testing.T) {
	sp, err := gen.SpecByName("powerlaw-s")
	if err != nil {
		t.Fatal(err)
	}
	m, err := gen.Generate(sp, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	// The container is single-core, where the model correctly picks p=1 and
	// a one-block schedule never degenerates; price against the paper's
	// multicore platform so parallel colored candidates exist.
	d, err := Tune(problem(s, m), Options{
		MaxThreads: 4,
		Formats:    []format.ID{format.SSSColored, format.SSSEffective, format.SSSIndexed},
		TrialIters: 2,
		Rounds:     1,
		Platform:   &perfmodel.Gainestown,
	})
	if err != nil {
		t.Fatal(err)
	}
	rejected := false
	for _, c := range d.Candidates {
		if c.Format != format.SSSColored {
			continue
		}
		if strings.HasPrefix(c.Status, "rejected (colored blow-up") {
			rejected = true
		}
		if c.Status == "chosen" || c.Status == "trialed" || strings.HasPrefix(c.Status, "eliminated") {
			t.Errorf("degenerate colored candidate %v reached the trials (status %q)", c.Plan, c.Status)
		}
	}
	if !rejected {
		t.Fatalf("no colored candidate was rejected by the blow-up guard; candidates:\n%s", d.Report())
	}
	if d.Plan.Format == format.SSSColored {
		t.Fatalf("chosen plan is the degenerate colored schedule: %v", d.Plan)
	}
}

// TestColoredGuardSparesBanded: the guard must not fire where coloring works
// — a banded matrix colors with a handful of colors at any thread count.
func TestColoredGuardSparesBanded(t *testing.T) {
	m, s := poisson(t, 60)
	d, err := Tune(problem(s, m), Options{
		MaxThreads: 4,
		Formats:    []format.ID{format.SSSColored, format.SSSEffective},
		TrialIters: 2,
		Rounds:     1,
		Platform:   &perfmodel.Gainestown,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Candidates {
		if strings.HasPrefix(c.Status, "rejected (colored blow-up") {
			t.Errorf("guard fired on a banded matrix: %v %q", c.Plan, c.Status)
		}
	}
}

// randomSkewCOO builds a small random skew-symmetric COO.
func randomSkewCOO(t testing.TB, n, avgRow int) *matrix.COO {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	m := matrix.NewCOO(n, n, n*avgRow)
	m.Symmetric, m.Skew = true, true
	for r := 1; r < n; r++ {
		for k := 0; k < avgRow; k++ {
			m.Add(r, rng.Intn(r), rng.NormFloat64())
		}
	}
	m.Normalize()
	return m
}

// TestTuneSkewRestrictsPlanSpace: a skew matrix must tune over only the
// kind-capable formats, and the chosen plan must build and compute the right
// operator.
func TestTuneSkewRestrictsPlanSpace(t *testing.T) {
	m := randomSkewCOO(t, 3000, 6)
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Tune(problem(s, m), Options{
		MaxThreads: 4,
		TrialIters: 2,
		Rounds:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Candidates {
		if !c.Format.Desc().Has(format.Tuned, core.Skew) {
			t.Errorf("kind-incapable format %v in the skew plan space", c.Format)
		}
	}
	if !d.Plan.Format.Desc().Has(0, core.Skew) {
		t.Fatalf("chosen plan %v cannot run a skew matrix", d.Plan)
	}
}

// TestCacheKeyKind: same fingerprint, different symmetry class — separate
// entries, and a cross-kind lookup misses.
func TestCacheKeyKind(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	sym := Key{Fingerprint: 0x99, Machine: "m"}
	skew := Key{Fingerprint: 0x99, Machine: "m", Kind: core.Skew}
	if st.path(sym) == st.path(skew) {
		t.Fatal("sym and skew keys share a cache file")
	}
	if err := st.Save(sym, Plan{Format: format.CSXSym, Threads: 4}, 5); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(skew, Plan{Format: format.SSSIndexed, Threads: 2}, 9); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Load(skew)
	if err != nil || !ok || got.Format != format.SSSIndexed || got.Threads != 2 {
		t.Fatalf("skew entry round trip: plan %v ok %v err %v", got, ok, err)
	}
	got, ok, err = st.Load(sym)
	if err != nil || !ok || got.Format != format.CSXSym || got.Threads != 4 {
		t.Fatalf("sym entry round trip: plan %v ok %v err %v", got, ok, err)
	}

	// A skew entry presented under the sym key (copied file) must miss with
	// the symmetry-class diagnostic.
	stray := Store{Dir: t.TempDir()}
	if err := stray.Save(skew, Plan{Format: format.SSSIndexed, Threads: 2}, 9); err != nil {
		t.Fatal(err)
	}
	if err := copyFile(stray.path(skew), stray.path(sym)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := stray.Load(sym); ok || err == nil ||
		!strings.Contains(err.Error(), "symmetry class") {
		t.Fatalf("cross-kind load: ok %v err %v, want keyed-mismatch diagnostic", ok, err)
	}
}
