package harness

import (
	"fmt"
	"time"

	"repro/internal/cg"
	"repro/internal/format"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

// PreprocCost reproduces §V-E: the CSX-Sym preprocessing cost expressed in
// units of serial CSR SpM×V operations. Both sides are *measured on the
// host* (preprocessing is a real computation here, not a model input): the
// wall time of csx.NewSym over the wall time of one serial CSR multiply.
func PreprocCost(cfg Config, suite []*SuiteMatrix) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "§V-E — CSX-Sym preprocessing cost (host-measured, in serial CSR SpM×V operations)",
		Header: []string{"Matrix", "preproc", "serial CSR op", "cost (ops)"},
	}
	pool := parallel.NewPool(16)
	defer pool.Close()
	serialPool := parallel.NewPool(1)
	defer serialPool.Close()
	var costs []float64
	for _, sm := range suite {
		cfg.logf("preproc: %s", sm.Spec.Name)
		b := Build(sm, format.CSXSym, pool)
		csrOp := perfmodel.MeasureSpMV(sm.CSR.MulVec, sm.S.N, minInt(cfg.Iterations, 16))
		ops := b.Preproc.Seconds() / csrOp.Seconds()
		costs = append(costs, ops)
		t.Rows = append(t.Rows, []string{
			sm.Spec.Name,
			b.Preproc.Round(time.Millisecond).String(),
			csrOp.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", ops),
		})
	}
	t.Rows = append(t.Rows, []string{"AVERAGE", "-", "-", fmt.Sprintf("%.0f", mean(costs))})
	return t
}

// cgVectorCost accounts the non-SpM×V work of one CG iteration (Alg. 1):
// two dot products, two axpys, one xpay — twelve 8-byte vector streams and
// ten flops per row, in six barrier-terminated phases.
func cgVectorCost(n int64) (flops, bytes int64, barriers int) {
	return 10 * n, 96 * n, 6
}

// Fig14 reproduces Fig. 14: the CG execution-time breakdown (SpM×V multiply,
// reduction, vector operations, format preprocessing) after CGIterations
// iterations at 24 threads on Dunnington, over the RCM-reordered suite.
// Preprocessing is charged from the host-measured §V-E cost, converted to
// platform time through the modeled serial CSR operation.
func Fig14(cfg Config, suite []*SuiteMatrix) (*Table, error) {
	cfg = cfg.withDefaults()
	pl := perfmodel.Dunnington.WithCacheScale(cfg.Scale)
	const p = 24
	iters := float64(cfg.CGIterations)
	formats := []format.ID{format.CSR, format.CSX, format.SSSIndexed, format.CSXSym}

	t := &Table{
		Title: fmt.Sprintf("Fig. 14 — CG time breakdown, %d iterations, %d threads, %s, RCM-reordered (seconds, modeled)",
			cfg.CGIterations, p, pl.Name),
		Header: []string{"Matrix", "Format", "SpMV", "Reduction", "VectorOps", "Preproc", "Total"},
	}

	hostPool := parallel.NewPool(p)
	defer hostPool.Close()

	for _, sm := range suite {
		cfg.logf("fig14: reordering %s", sm.Spec.Name)
		rm, err := sm.Reordered()
		if err != nil {
			return nil, err
		}
		n := int64(rm.S.N)
		vf, vb, vbar := cgVectorCost(n)
		vecSec := pl.PhaseSeconds(p, vf, vb) + float64(vbar-1)*pl.BarrierSeconds(p)

		for _, f := range formats {
			built := Build(rm, f, hostPool)
			c := built.Cost(&rm.Matrix)
			mult := c.MultSeconds(pl, p) * iters
			red := c.RedSeconds(pl, p) * iters
			vops := vecSec * iters
			pre := 0.0
			if f == format.CSX || f == format.CSXSym {
				// Host-measured preprocessing expressed in serial CSR ops,
				// mapped to platform time through the modeled serial op.
				csrOp := perfmodel.MeasureSpMV(rm.CSR.MulVec, rm.S.N, 4)
				ops := built.Preproc.Seconds() / csrOp.Seconds()
				pre = ops * perfmodel.CSRCost(rm.CSR).SerialSeconds(pl)
			}
			total := mult + red + vops + pre
			t.Rows = append(t.Rows, []string{
				rm.Spec.Name, f.String(),
				fmt.Sprintf("%.3f", mult),
				fmt.Sprintf("%.3f", red),
				fmt.Sprintf("%.3f", vops),
				fmt.Sprintf("%.3f", pre),
				fmt.Sprintf("%.3f", total),
			})
		}
	}
	return t, nil
}

// HostCG runs a real CG solve on the host for every format (correctness and
// end-to-end behaviour of the actual solver, not the model): it builds a
// random SPD system b = A·x* and solves from x₀ = 0, reporting iterations,
// residual and the measured phase split.
func HostCG(cfg Config, suite []*SuiteMatrix, threads, iters int) *Table {
	cfg = cfg.withDefaults()
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	t := &Table{
		Title:  fmt.Sprintf("Host-measured CG (%d iterations fixed, %d thread(s))", iters, threads),
		Header: []string{"Matrix", "Format", "Preproc", "Total", "SpMV", "VectorOps", "rel.residual"},
	}
	pool := parallel.NewPool(threads)
	defer pool.Close()
	for _, sm := range suite {
		n := sm.S.N
		xstar := perfmodel.InputVector(n)
		b := make([]float64, n)
		sm.COO().MulVec(xstar, b)
		for _, f := range []format.ID{format.CSR, format.SSSIndexed, format.CSXSym} {
			cfg.logf("hostcg/%s: %s", sm.Spec.Name, f)
			built := Build(sm, f, pool)
			x := make([]float64, n)
			// FixedIterations skips the breakdown checks, so no error.
			res, _ := cg.Solve(built.Op(), pool, b, x, cg.Options{
				MaxIter: iters, FixedIterations: true,
			})
			t.Rows = append(t.Rows, []string{
				sm.Spec.Name, f.String(),
				built.Preproc.Round(time.Millisecond).String(),
				res.TotalTime.Round(time.Millisecond).String(),
				res.SpMVTime.Round(time.Millisecond).String(),
				res.VectorTime.Round(time.Millisecond).String(),
				fmt.Sprintf("%.2e", res.Residual),
			})
		}
	}
	return t
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
