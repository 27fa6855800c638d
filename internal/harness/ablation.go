package harness

import (
	"fmt"
	"time"

	"repro/internal/csx"
	"repro/internal/format"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

// Ablation experiments beyond the paper's figures, probing the design
// choices DESIGN.md calls out: the choice of reduction strategy (including
// the lock-free atomic alternative the paper dismisses) and the CSX
// substructure-detection machinery.

// AblationReduction compares all four reduction strategies — the paper's
// three local-vector methods plus direct atomic updates — as modeled
// speedups over serial CSR at each platform's featured thread count, and
// reports the per-matrix conflict volume that drives them.
func AblationReduction(cfg Config, suite []*SuiteMatrix) *Table {
	cfg = cfg.withDefaults()
	type plat struct {
		pl perfmodel.Platform
		p  int
	}
	plats := []plat{
		{perfmodel.Dunnington.WithCacheScale(cfg.Scale), 24},
		{perfmodel.Gainestown.WithCacheScale(cfg.Scale), 16},
	}
	formats := []format.ID{format.SSSNaive, format.SSSEffective, format.SSSIndexed, format.SSSAtomic, format.CSB}

	t := &Table{
		Title: "Ablation — reduction strategies incl. atomic updates and CSB-Sym (modeled speedup over serial CSR, suite geomean)",
		Note:  "SSS-atomic = direct CAS updates (§III-A's dismissed alternative); CSB-Sym = Buluç et al. blocked kernel with offset buffers + atomic fallback (§VI)",
		Header: []string{"Method",
			fmt.Sprintf("%s (%d thr)", plats[0].pl.Name, plats[0].p),
			fmt.Sprintf("%s (%d thr)", plats[1].pl.Name, plats[1].p)},
	}
	speed := make([][][]float64, len(formats))
	for i := range speed {
		speed[i] = make([][]float64, len(plats))
	}
	for _, sm := range suite {
		cfg.logf("ablation-reduction: %s", sm.Spec.Name)
		for pi, pp := range plats {
			base := serialCSRSeconds(sm, pp.pl)
			costs := modelCosts(sm, formats, pp.p)
			for fi, f := range formats {
				speed[fi][pi] = append(speed[fi][pi], base/costs[f].Seconds(pp.pl, pp.p))
			}
		}
	}
	for fi, f := range formats {
		row := []string{f.String()}
		for pi := range plats {
			row = append(row, fmt.Sprintf("%.2f", geomean(speed[fi][pi])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// AblationBaselines widens the comparison with the register-blocked BCSR
// baseline from the paper's related work: per-matrix modeled performance of
// every unsymmetric baseline against the symmetric formats, plus BCSR's
// fill ratio under the library's block search (1.00 where it falls back to
// 1×1 because no register block pays, as on the scattered matrices).
func AblationBaselines(cfg Config, suite []*SuiteMatrix) *Table {
	cfg = cfg.withDefaults()
	pl := perfmodel.Gainestown.WithCacheScale(cfg.Scale)
	const p = 16
	formats := []format.ID{format.CSR, format.BCSR, format.CSX, format.SSSIndexed, format.CSXSym}
	t := &Table{
		Title:  fmt.Sprintf("Ablation — unsymmetric baselines incl. BCSR (Gflop/s at %d threads, %s, modeled)", p, pl.Name),
		Header: []string{"Matrix"},
	}
	for _, f := range formats {
		t.Header = append(t.Header, f.String())
	}
	t.Header = append(t.Header, "BCSR fill")
	for _, sm := range suite {
		cfg.logf("ablation-baselines: %s", sm.Spec.Name)
		pool := parallel.NewPool(p)
		row := []string{sm.Spec.Name}
		var fill float64
		for _, f := range formats {
			c := Cost(sm, f, pool)
			row = append(row, fmt.Sprintf("%.2f", c.Gflops(pl, p)))
			if f == format.BCSR {
				fill = float64(c.MultFlops) / float64(c.UsefulFlops)
			}
		}
		pool.Close()
		row = append(row, fmt.Sprintf("%.2f", fill))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// csxVariant names one detector configuration for the CSX ablation.
type csxVariant struct {
	name string
	opts csx.Options
}

func csxVariants() []csxVariant {
	full := csx.DefaultOptions()
	noBlocks := full
	noBlocks.EnableBlocks = false
	horizOnly := full
	horizOnly.EnableBlocks = false
	horizOnly.Directions = []csx.Direction{csx.DirHorizontal}
	deltaOnly := full
	deltaOnly.EnableBlocks = false
	deltaOnly.MinCoverage = 2 // unreachable: no substructures at all
	longRuns := full
	longRuns.MinRunLength = 8
	return []csxVariant{
		{"full", full},
		{"no-blocks", noBlocks},
		{"horizontal-only", horizOnly},
		{"delta-only", deltaOnly},
		{"min-run=8", longRuns},
	}
}

// AblationCSX measures what each piece of the CSX-Sym detection machinery
// buys: compression ratio, modeled performance, and real preprocessing time
// per detector configuration.
func AblationCSX(cfg Config, suite []*SuiteMatrix) *Table {
	cfg = cfg.withDefaults()
	pl := perfmodel.Gainestown.WithCacheScale(cfg.Scale)
	const p = 16
	t := &Table{
		Title:  "Ablation — CSX-Sym detection machinery (suite averages)",
		Note:   fmt.Sprintf("modeled Gflop/s at %d threads on %s; preprocessing is host wall-clock", p, pl.Name),
		Header: []string{"Variant", "C.R.", "Gflop/s", "preproc"},
	}
	pool := parallel.NewPool(p)
	defer pool.Close()
	for _, v := range csxVariants() {
		var crSum, gSum float64
		var preSum time.Duration
		for _, sm := range suite {
			cfg.logf("ablation-csx/%s: %s", v.name, sm.Spec.Name)
			b, err := format.Build(&sm.Matrix, format.CSXSym, pool, format.Options{CSX: &v.opts})
			if err != nil {
				panic(err) // the suite is symmetric; CSX-Sym always builds
			}
			preSum += b.Preproc
			crSum += b.Sym.CompressionRatio()
			gSum += b.Cost(&sm.Matrix).Gflops(pl, p)
		}
		n := float64(len(suite))
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%.1f%%", 100*crSum/n),
			fmt.Sprintf("%.2f", gSum/n),
			(preSum / time.Duration(len(suite))).Round(time.Millisecond).String(),
		})
	}
	return t
}
