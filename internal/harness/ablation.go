package harness

import (
	"fmt"
	"time"

	"repro/internal/csx"
	"repro/internal/format"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

// The ablation experiment beyond the paper's figures: what each piece of the
// CSX substructure-detection machinery buys.

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
