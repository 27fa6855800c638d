package harness

import (
	"fmt"

	"repro/internal/format"
	"repro/internal/perfmodel"
)

// TableIII reproduces Table III: the average SpM×V performance improvement
// due to RCM matrix reordering, per format, at 24 threads on Dunnington and
// 16 on Gainestown. The improvement is a real structural effect: RCM shrinks
// the bandwidth of the scrambled-stencil matrices, which (a) shrinks the
// conflict index of the symmetric kernels and (b) raises the substructure
// coverage CSX/CSX-Sym can encode — both recomputed from the permuted
// matrices, not assumed.
func TableIII(cfg Config, suite []*SuiteMatrix) (*Table, error) {
	cfg = cfg.withDefaults()
	formats := []format.ID{format.CSR, format.CSX, format.SSSIndexed, format.CSXSym}
	type plat struct {
		pl perfmodel.Platform
		p  int
	}
	plats := []plat{
		{perfmodel.Dunnington.WithCacheScale(cfg.Scale), 24},
		{perfmodel.Gainestown.WithCacheScale(cfg.Scale), 16},
	}

	t := &Table{
		Title: "Table III — SpM×V performance improvement due to RCM reordering (suite average)",
		Header: []string{"Format",
			fmt.Sprintf("%s (%d thr)", plats[0].pl.Name, plats[0].p),
			fmt.Sprintf("%s (%d thr)", plats[1].pl.Name, plats[1].p)},
	}
	// improvements[fi][pi] accumulates per-matrix relative improvements.
	improvements := make([][][]float64, len(formats))
	for i := range improvements {
		improvements[i] = make([][]float64, len(plats))
	}
	for _, sm := range suite {
		cfg.logf("table3: reordering %s", sm.Spec.Name)
		rm, err := sm.Reordered()
		if err != nil {
			return nil, err
		}
		cfg.logf("table3: %s bandwidth %d -> %d", sm.Spec.Name, sm.Stats.Bandwidth, rm.Stats.Bandwidth)
		for pi, pp := range plats {
			before := modelCosts(sm, formats, pp.p)
			after := modelCosts(rm, formats, pp.p)
			for fi, f := range formats {
				tb := before[f].Seconds(pp.pl, pp.p)
				ta := after[f].Seconds(pp.pl, pp.p)
				improvements[fi][pi] = append(improvements[fi][pi], tb/ta-1)
			}
		}
	}
	for fi, f := range formats {
		row := []string{f.String()}
		for pi := range plats {
			row = append(row, fmt.Sprintf("%.1f%%", 100*mean(improvements[fi][pi])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig13 reproduces Fig. 13: per-matrix performance on the RCM-reordered
// suite at 16 threads on Gainestown.
func Fig13(cfg Config, suite []*SuiteMatrix) (*Table, error) {
	cfg = cfg.withDefaults()
	reordered := make([]*SuiteMatrix, 0, len(suite))
	for _, sm := range suite {
		cfg.logf("fig13: reordering %s", sm.Spec.Name)
		rm, err := sm.Reordered()
		if err != nil {
			return nil, err
		}
		reordered = append(reordered, rm)
	}
	return perMatrixGflops(cfg, reordered, perfmodel.Gainestown.WithCacheScale(cfg.Scale), 16,
		"Fig. 13 — per-matrix performance on RCM-reordered matrices, 16 threads, Gainestown (Gflop/s, modeled)"), nil
}
