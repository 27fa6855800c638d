package harness

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/format"
)

func TestAblationCSXVariantsOrdered(t *testing.T) {
	suite, err := LoadSuite(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := AblationCSX(tinyCfg(), suite)
	if len(tab.Rows) != 5 {
		t.Fatalf("want 5 variant rows, got %d", len(tab.Rows))
	}
	cr := map[string]float64{}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		if err != nil {
			t.Fatalf("bad C.R. cell %q", row[1])
		}
		cr[row[0]] = v
	}
	if cr["full"] < cr["delta-only"] {
		t.Errorf("full detection (%g%%) compresses worse than delta-only (%g%%)",
			cr["full"], cr["delta-only"])
	}
}

func TestFig11AndFig13Run(t *testing.T) {
	cfg := tinyCfg()
	suite, err := LoadSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tables := Fig11(cfg, suite)
	if len(tables) != 4 { // 2 platforms × (sweep + per-matrix panel)
		t.Fatalf("Fig11 returned %d tables", len(tables))
	}
	f13, err := Fig13(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13.Rows) != len(suite)+1 { // + AVERAGE
		t.Fatalf("Fig13 rows = %d", len(f13.Rows))
	}
}

func TestHostMeasuredAndHostCG(t *testing.T) {
	cfg := tinyCfg()
	cfg.Matrices = cfg.Matrices[:1]
	suite, err := LoadSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At nv = 4 the formats without MulMat (CSX, CSX-Sym) print "-"; the
	// phase table has one row per SSS method, colored's reduction zero.
	for _, nv := range []int{1, 4} {
		cfg.NV = nv
		hm := HostMeasured(cfg, suite, 2)
		if len(hm) != 2 || len(hm[0].Rows) != 1 || len(hm[0].Rows[0]) != len(format.All())+1 || len(hm[1].Rows) != 4 {
			t.Fatalf("nv=%d: HostMeasured shape: %v", nv, hm)
		}
		for i, cell := range hm[0].Rows[0][1:] {
			f := format.All()[i]
			if nv > 1 && !f.Desc().Has(format.MulMat, suite[0].S.Kind) {
				if cell != "-" {
					t.Errorf("nv=%d: %v has no MulMat but reads %q", nv, f, cell)
				}
			} else if v, err := strconv.ParseFloat(cell, 64); err != nil || v <= 0 {
				t.Fatalf("nv=%d: %v: non-positive Gflop/s cell %q", nv, f, cell)
			}
		}
		for _, row := range hm[1].Rows {
			if row[1] == format.SSSColored.String() && row[4] != "0.0" {
				t.Errorf("nv=%d: colored reduction %s µs, want 0", nv, row[4])
			}
		}
	}
	hc := HostCG(cfg, suite, 2, 4)
	if len(hc.Rows) != 3 { // CSR, SSS-indexed, CSX-Sym
		t.Fatalf("HostCG rows = %d", len(hc.Rows))
	}
}

func TestCSVAndSlug(t *testing.T) {
	tab := &Table{
		Title:  "Fig. 9 — Dunnington (modeled speedup)",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
	}
	if slug := tab.SlugTitle(); slug != "fig-9-dunnington" {
		t.Fatalf("SlugTitle = %q", slug)
	}
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a,b\n1,2\n" {
		t.Fatalf("CSV = %q", sb.String())
	}
}

func TestRunWithCSVDir(t *testing.T) {
	cfg := tinyCfg()
	dir := t.TempDir()
	var sb strings.Builder
	if err := Run("fig4", cfg, &sb, dir); err != nil {
		t.Fatal(err)
	}
	// One CSV file must exist.
	matches, err := filepath.Glob(dir + "/*.csv")
	if err != nil || len(matches) != 1 {
		t.Fatalf("csv files: %v (%v)", matches, err)
	}
}
