package harness

// The colored-schedule experiments extend the paper's evaluation with the
// prevention-based fourth method: "colored" places SSS-colored beside the
// three reduction methods of Fig. 9 and quantifies its RCM synergy (the
// coloring collapses with the bandwidth), and "phases" measures the per-phase
// time breakdown of every symmetric method on the host — making the colored
// schedule's zero reduction time directly observable.

import (
	"fmt"
	"time"

	"repro/internal/color"
	"repro/internal/format"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

// ColoredSpeedup renders the modeled speedup of the colored schedule beside
// the paper's three reduction methods (the Fig. 9 set), per platform.
func ColoredSpeedup(cfg Config, suite []*SuiteMatrix) []*Table {
	formats := []format.ID{format.CSR, format.SSSNaive, format.SSSEffective,
		format.SSSIndexed, format.SSSColored}
	return speedupTables(cfg, suite, formats, "Colored")
}

// ColoredRCM quantifies the schedule's synergy with RCM reordering: the
// number of row blocks that keep the two-color invariant grows as the
// bandwidth shrinks, so reordering is what lets the colored schedule use
// every thread. Host Gflop/s of the colored kernel before/after completes
// the picture.
func ColoredRCM(cfg Config, suite []*SuiteMatrix) (*Table, error) {
	cfg = cfg.withDefaults()
	p := parallel.DefaultThreads()
	// Blocks are counted at a representative parallel schedule width: a
	// single-thread host would otherwise report the trivial one-block
	// schedule and hide the bandwidth↔blocks synergy the table exists to show.
	pc := max(p, 8)
	t := &Table{
		Title: fmt.Sprintf("Colored × RCM — bandwidth, blocks and host Gflop/s at %d thread(s)", p),
		Note:  fmt.Sprintf("blocks counted for the %d-thread schedule", pc),
		Header: []string{"Matrix", "bw", "blocks", "Gflop/s",
			"bw(RCM)", "blocks(RCM)", "Gflop/s(RCM)"},
	}
	pool := parallel.NewPool(p)
	defer pool.Close()
	for _, sm := range suite {
		cfg.logf("colored-rcm: %s", sm.Spec.Name)
		rm, err := sm.Reordered()
		if err != nil {
			return nil, err
		}
		row := []string{sm.Spec.Name}
		for _, m := range []*SuiteMatrix{sm, rm} {
			sc := color.Build(m.S.N, m.S.RowPtr, m.S.ColIdx, pc, color.Options{})
			b := Build(m, format.SSSColored, pool)
			per := perfmodel.MeasureSpMV(b.Mul, m.S.N, cfg.Iterations)
			row = append(row,
				fmt.Sprintf("%d", m.Stats.Bandwidth),
				fmt.Sprintf("%d", sc.NumBlocks),
				fmt.Sprintf("%.3f", perfmodel.Gflops(b.Cost(&m.Matrix).UsefulFlops, per.Seconds())))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// phaseFormats are the symmetric SSS formats the phase-timing experiment
// compares, in presentation order.
var phaseFormats = []format.ID{
	format.SSSNaive, format.SSSEffective, format.SSSIndexed, format.SSSColored,
}

// PhaseBreakdown is the host-measured counterpart of Fig. 10, extended with
// the colored schedule: per matrix and method, the compute, reduction and
// barrier/handoff time per operation. The colored rows read zero in the
// reduction column by construction — that column is the work the schedule
// eliminates.
func PhaseBreakdown(cfg Config, suite []*SuiteMatrix) *Table {
	cfg = cfg.withDefaults()
	p := parallel.DefaultThreads()
	t := &Table{
		Title: fmt.Sprintf("Phase breakdown — host-measured at %d thread(s), %d iterations (µs/op)",
			p, cfg.Iterations),
		Header: []string{"Matrix", "Method", "colors", "compute", "reduction", "barrier", "wall"},
	}
	pool := parallel.NewPool(p)
	defer pool.Close()
	us := func(d time.Duration) string {
		return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
	}
	for _, sm := range suite {
		for _, f := range phaseFormats {
			cfg.logf("phases/%s: %v", sm.Spec.Name, f)
			k := Build(sm, f, pool).Kernel
			pt, _ := measureSpMM(k, sm.S.N, 1, cfg.Iterations) // single-vector sampling cannot fail
			per := pt.PerOp()
			t.Rows = append(t.Rows, []string{
				sm.Spec.Name, f.String(), fmt.Sprintf("%d", k.Colors()),
				us(per.Compute), us(per.Reduction), us(per.Barrier), us(per.Wall),
			})
		}
	}
	return t
}
