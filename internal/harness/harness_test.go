package harness

import (
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/format"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

// tinyCfg keeps harness tests fast: two small matrices, few iterations.
func tinyCfg() Config {
	return Config{
		Scale:        0.004,
		Matrices:     []string{"parabolic_fem", "consph"},
		Iterations:   4,
		CGIterations: 16,
		Threads:      []int{1, 2, 4},
	}
}

func TestLoadSuite(t *testing.T) {
	suite, err := LoadSuite(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 2 {
		t.Fatalf("suite size %d", len(suite))
	}
	for _, sm := range suite {
		if sm.S.N != sm.Stats.Rows || sm.CSR.Rows != sm.S.N {
			t.Fatalf("%s: inconsistent representations", sm.Spec.Name)
		}
	}
}

func TestLoadSuiteUnknownMatrix(t *testing.T) {
	cfg := tinyCfg()
	cfg.Matrices = []string{"not-a-matrix"}
	if _, err := LoadSuite(cfg); err == nil {
		t.Fatal("expected error for unknown matrix")
	}
}

func TestBuildAllFormatsAgree(t *testing.T) {
	suite, err := LoadSuite(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	sm := suite[1] // consph: blocked, exercises CSX patterns
	n := sm.S.N
	x := make([]float64, n)
	rngFill(x)
	want := make([]float64, n)
	sm.M.MulVec(x, want)
	for _, p := range []int{1, 3} {
		pool := parallel.NewPool(p)
		for _, f := range format.All() {
			b := Build(sm, f, pool)
			if c := b.Cost(&sm.Matrix); c.MultBytes <= 0 || c.UsefulFlops <= 0 {
				t.Errorf("%v p=%d: degenerate cost %+v", f, p, c)
			}
			got := make([]float64, n)
			b.Mul(x, got)
			for i := range want {
				if d := math.Abs(want[i] - got[i]); d > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("%v p=%d: row %d differs by %g", f, p, i, d)
				}
			}
		}
		pool.Close()
	}
}

func TestSymmetricFormatsReportReduction(t *testing.T) {
	suite, err := LoadSuite(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, f := range format.All() {
		c := Cost(suite[0], f, pool)
		hasRed := c.RedBytes > 0
		if f == format.SSSColored {
			// The colored schedule prevents conflicts instead of repairing
			// them: zero reduction traffic is its defining property.
			if hasRed {
				t.Errorf("%v: colored schedule accounts reduction bytes (%d)", f, c.RedBytes)
			}
			if c.ExtraBarriers <= 0 {
				t.Errorf("%v: colored schedule reports no extra barriers", f)
			}
			continue
		}
		// Every other format that exploits symmetry (stores the lower
		// triangle, not the expanded general operator) repairs the transposed
		// writes in a reduction phase.
		symmetric := f.Desc().Caps&format.General == 0
		if hasRed != symmetric {
			t.Errorf("%v: reduction bytes present=%v, symmetric=%v", f, hasRed, symmetric)
		}
	}
}

func TestMeasureSpMVPositive(t *testing.T) {
	suite, err := LoadSuite(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if d := MeasureSpMV(suite[0].CSR.MulVec, suite[0].S.N, 4); d <= 0 {
		t.Fatalf("MeasureSpMV = %v", d)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "test",
		Note:   "note",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	}
	out := tab.String()
	for _, want := range []string{"== test ==", "note", "a", "bb", "1", "4"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	names := ExperimentNames()
	if len(names) < 13 {
		t.Fatalf("too few experiments: %v", names)
	}
	if err := Run("definitely-not-an-experiment", tinyCfg(), io.Discard); err == nil {
		t.Fatal("accepted unknown experiment")
	}
}

func TestRunFastExperiments(t *testing.T) {
	cfg := tinyCfg()
	for _, exp := range []string{"table1", "fig4", "fig5", "fig9", "fig10", "fig12", "preproc", "colored", "phases"} {
		var sb strings.Builder
		if err := Run(exp, cfg, &sb); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if sb.Len() == 0 {
			t.Fatalf("%s produced no output", exp)
		}
	}
}

func TestRunReorderExperiments(t *testing.T) {
	cfg := tinyCfg()
	var sb strings.Builder
	if err := Run("table3", cfg, &sb); err != nil {
		t.Fatal(err)
	}
	if err := Run("fig14", cfg, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "RCM") {
		t.Fatal("table3 output missing RCM header")
	}
}

func TestReorderedPreservesOperator(t *testing.T) {
	suite, err := LoadSuite(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	sm := suite[0]
	rm, err := sm.Reordered()
	if err != nil {
		t.Fatal(err)
	}
	if rm.Stats.LogicalNNZ != sm.Stats.LogicalNNZ {
		t.Fatalf("reordering changed nnz: %d vs %d", rm.Stats.LogicalNNZ, sm.Stats.LogicalNNZ)
	}
	if rm.Stats.Bandwidth >= sm.Stats.Bandwidth {
		t.Fatalf("RCM did not reduce bandwidth: %d -> %d (scrambled matrix)",
			sm.Stats.Bandwidth, rm.Stats.Bandwidth)
	}
}

func TestGeomeanAndMean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %g", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %g", g)
	}
	if m := mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %g", m)
	}
}

func TestThreadsForClips(t *testing.T) {
	cfg := Config{Threads: []int{1, 8, 64}}.withDefaults()
	suiteless := cfg.threadsFor(perfmodel.Gainestown)
	for _, p := range suiteless {
		if p > 16 {
			t.Fatalf("thread %d beyond platform max", p)
		}
	}
	if suiteless[len(suiteless)-1] != 16 {
		t.Fatalf("max threads not included: %v", suiteless)
	}
}

// The harness labels a format exactly as the facade does (symspmv.Format is
// the same type): Fig. 9's rows and Fig. 12's columns carry the table's
// canonical names, "SSS-indexed" and not the harness's old "SSS-idx".
func TestTablesUseCanonicalLabels(t *testing.T) {
	cfg := tinyCfg()
	suite, err := LoadSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	canonical := map[string]bool{}
	for _, f := range format.All() {
		canonical[f.String()] = true
	}
	var labels []string
	for _, row := range Fig9(cfg, suite)[0].Rows {
		labels = append(labels, row[0])
	}
	labels = append(labels, Fig12(cfg, suite).Header[1:]...)
	sawIndexed := false
	for _, l := range labels {
		if !canonical[l] {
			t.Errorf("harness label %q is not a canonical format name", l)
		}
		sawIndexed = sawIndexed || l == "SSS-indexed"
	}
	if !sawIndexed {
		t.Errorf("no SSS-indexed label among %v", labels)
	}
}
