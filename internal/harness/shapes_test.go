package harness

// The reproduction-regression test: asserts the *shape* claims of the
// paper's evaluation on moderately sized generated matrices. If a refactor
// breaks any mechanism (conflict index, legality rule, traffic accounting,
// platform model), one of these assertions trips.

import (
	"testing"

	"repro/internal/format"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

func shapesSuite(t *testing.T) ([]*SuiteMatrix, Config) {
	t.Helper()
	cfg := Config{
		Scale: 0.02,
		// one blocked structural, one scattered corner case, one large blocked
		Matrices:   []string{"bmwcra_1", "G3_circuit", "ldoor"},
		Iterations: 4,
	}
	suite, err := LoadSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return suite, cfg
}

func seconds(t *testing.T, sm *SuiteMatrix, f format.ID, pl perfmodel.Platform, p int) float64 {
	t.Helper()
	pool := parallel.NewPool(p)
	defer pool.Close()
	return Cost(sm, f, pool).Seconds(pl, p)
}

func TestShapeReductionMethodOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	suite, cfg := shapesSuite(t)
	pl := perfmodel.Dunnington.WithCacheScale(cfg.Scale)
	for _, sm := range suite {
		naive := seconds(t, sm, format.SSSNaive, pl, 24)
		eff := seconds(t, sm, format.SSSEffective, pl, 24)
		idx := seconds(t, sm, format.SSSIndexed, pl, 24)
		if !(idx < eff && eff < naive) {
			t.Errorf("%s: Fig.9 ordering violated at 24 threads: idx=%g eff=%g naive=%g",
				sm.Spec.Name, idx, eff, naive)
		}
	}
}

func TestShapeIndexedBeatsCSRAtScaleOnRegular(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	suite, cfg := shapesSuite(t)
	for _, pl := range []perfmodel.Platform{
		perfmodel.Dunnington.WithCacheScale(cfg.Scale),
		perfmodel.Gainestown.WithCacheScale(cfg.Scale),
	} {
		p := pl.ThreadsMax
		for _, sm := range suite {
			if sm.Spec.Name == "G3_circuit" {
				continue // corner case: allowed to lose pre-RCM
			}
			csr := seconds(t, sm, format.CSR, pl, p)
			idx := seconds(t, sm, format.SSSIndexed, pl, p)
			if idx >= csr {
				t.Errorf("%s/%s: SSS-idx (%g) not faster than CSR (%g) at %d threads",
					sm.Spec.Name, pl.Name, idx, csr, p)
			}
		}
	}
}

func TestShapeNaiveFallsBelowCSRAtHighThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	suite, cfg := shapesSuite(t)
	pl := perfmodel.Dunnington.WithCacheScale(cfg.Scale)
	// "the performance of the baseline SSS falls even below CSR in highly
	// multithreaded contexts" — on the scattered corner case.
	for _, sm := range suite {
		if sm.Spec.Name != "G3_circuit" {
			continue
		}
		naive := seconds(t, sm, format.SSSNaive, pl, 24)
		csr := seconds(t, sm, format.CSR, pl, 24)
		if naive <= csr {
			t.Errorf("naive SSS (%g) did not fall below CSR (%g) on the corner case", naive, csr)
		}
	}
}

func TestShapeCSXSymLeadsOnBlocked(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	suite, cfg := shapesSuite(t)
	pl := perfmodel.Gainestown.WithCacheScale(cfg.Scale)
	for _, sm := range suite {
		if sm.Spec.Name == "G3_circuit" {
			continue
		}
		idx := seconds(t, sm, format.SSSIndexed, pl, 16)
		sym := seconds(t, sm, format.CSXSym, pl, 16)
		if sym >= idx {
			t.Errorf("%s: CSX-Sym (%g) not ahead of SSS-idx (%g) on blocked matrix",
				sm.Spec.Name, sym, idx)
		}
	}
}

func TestShapeRCMRecoversCornerCase(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	suite, cfg := shapesSuite(t)
	pl := perfmodel.Gainestown.WithCacheScale(cfg.Scale)
	for _, sm := range suite {
		if sm.Spec.Name != "G3_circuit" {
			continue
		}
		rm, err := sm.Reordered()
		if err != nil {
			t.Fatal(err)
		}
		before := seconds(t, sm, format.CSXSym, pl, 16)
		after := seconds(t, rm, format.CSXSym, pl, 16)
		if after >= before*0.85 {
			t.Errorf("RCM improved CSX-Sym only %g -> %g (< 15%%) on the scrambled matrix",
				before, after)
		}
		// And after RCM the symmetric format must beat CSR.
		csrAfter := seconds(t, rm, format.CSR, pl, 16)
		if after >= csrAfter {
			t.Errorf("post-RCM CSX-Sym (%g) still behind CSR (%g)", after, csrAfter)
		}
	}
}

func TestShapeDensityDropsWithThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	suite, _ := shapesSuite(t)
	for _, sm := range suite {
		if sm.Spec.Name != "G3_circuit" {
			continue
		}
		pool2 := parallel.NewPool(2)
		pool64 := parallel.NewPool(64)
		d2 := Cost(sm, format.SSSIndexed, pool2).RedBytes
		d64 := Cost(sm, format.SSSIndexed, pool64).RedBytes
		pool2.Close()
		pool64.Close()
		// The indexed reduction bytes grow far slower than 32x when the
		// thread count grows 32x (Fig. 4/5 stabilization).
		if d64 > 8*d2 {
			t.Errorf("indexed reduction bytes grew %dx from p=2 to p=64", d64/maxInt64(d2, 1))
		}
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
