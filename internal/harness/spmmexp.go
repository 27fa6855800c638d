package harness

// The multi-RHS (SpMM) experiments. The paper's central claim is that
// symmetric SpM×V is bound by matrix-stream bandwidth; streaming the matrix
// once across nv right-hand sides divides the matrix bytes per useful flop by
// nv. "spmm-bench" measures that on the host; "spmm-smoke" is the cheap CI
// gate asserting the bytes-per-flop account actually drops with nv.

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

// spmmWidths is the default register-blocked width sweep.
var spmmWidths = []int{2, 4, 8}

// spmmThreads is the thread sweep of spmm-bench: {1, 2, 4} plus the machine's
// GOMAXPROCS when larger, deduplicated and capped at GOMAXPROCS.
func spmmThreads() []int {
	maxp := runtime.GOMAXPROCS(0)
	set := map[int]bool{}
	for _, p := range []int{1, 2, 4, maxp} {
		if p >= 1 && p <= maxp {
			set[p] = true
		}
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// measureSpMM runs perfmodel.MeasureSpMV's protocol over nv-wide sampled
// operations and returns the phase breakdown accumulated over the timed
// ones; nv = 1 is the plain SpM×V and cannot fail.
func measureSpMM(k *core.Kernel, n, nv, iters int) (core.PhaseTimes, error) {
	var pt core.PhaseTimes
	var err error
	ops := 0
	perfmodel.MeasureSpMV(func(x, y []float64) {
		p, e := k.TimedMulMat(x, y, nv)
		if ops++; ops > 1 { // the first is the protocol's untimed warm-up
			pt.Add(p)
		}
		if err == nil {
			err = e
		}
	}, n*nv, iters)
	return pt, err
}

// SpMMBench measures the SSS-indexed kernel scalar vs register-blocked
// multi-RHS on the suite and returns a summary table. The comparison to read
// off: "spmm8" Gflop/s vs "scalar" (which also scores 8 back-to-back scalar
// sweeps — Gflop/s is per useful flop).
func SpMMBench(cfg Config, suite []*SuiteMatrix) (*Table, error) {
	cfg = cfg.withDefaults()
	widths := spmmWidths
	if cfg.NV > 1 {
		widths = []int{cfg.NV}
	}
	widths = append([]int{1}, widths...)
	t := &Table{
		Title:  fmt.Sprintf("spmm-bench — %v scalar vs blocked multi-RHS", format.SSSIndexed),
		Note:   "Gflop/s counts useful flops over all vectors: nv scalar sweeps score the same as one scalar sweep",
		Header: []string{"Matrix", "Config", "p", "Gflop/s", "matB/flop", "compute µs", "reduction µs", "wall µs/vec"},
	}
	for _, p := range spmmThreads() {
		pool := parallel.NewPool(p)
		for _, sm := range suite {
			b := Build(sm, format.SSSIndexed, pool)
			for _, nv := range widths {
				name := "scalar"
				if nv > 1 {
					name = fmt.Sprintf("spmm%d", nv)
				}
				cfg.logf("spmm-bench/p=%d/%s: %s", p, sm.Spec.Name, name)
				pt, err := measureSpMM(b.Kernel, sm.S.N, nv, cfg.Iterations)
				if err != nil {
					pool.Close()
					return nil, fmt.Errorf("%s/%s: %w", sm.Spec.Name, name, err)
				}
				cost := b.Cost(&sm.Matrix).SpMM(nv)
				per := pt.PerOp()
				t.Rows = append(t.Rows, []string{
					sm.Spec.Name, name, fmt.Sprintf("%d", p),
					fmt.Sprintf("%.3f", perfmodel.Gflops(cost.UsefulFlops, per.Wall.Seconds())),
					fmt.Sprintf("%.3f", float64(cost.MatrixBytes)/float64(cost.UsefulFlops)),
					fmt.Sprintf("%.1f", float64(per.Compute.Nanoseconds())/1e3),
					fmt.Sprintf("%.1f", float64(per.Reduction.Nanoseconds())/1e3),
					// wall/op ÷ nv: the cost of one logical SpM×V
					fmt.Sprintf("%.1f", float64(per.Wall.Nanoseconds()/int64(nv))/1e3),
				})
			}
		}
		pool.Close()
	}
	return t, nil
}

// SpMMSmoke is the CI gate behind `make bench-smoke`: on one small suite
// matrix it verifies that the exactly-counted matrix bytes per useful flop
// strictly drop as the blocked width grows (the whole point of the SpMM
// path), and that each blocked width actually runs. Deliberately free of
// wall-clock assertions — CI machines are noisy; the traffic account is not.
func SpMMSmoke(cfg Config, suite []*SuiteMatrix) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(suite) == 0 {
		return nil, fmt.Errorf("spmm-smoke: empty suite")
	}
	sm := suite[0]
	pool := parallel.NewPool(2)
	defer pool.Close()
	b := Build(sm, format.SSSIndexed, pool)
	t := &Table{
		Title:  fmt.Sprintf("spmm-smoke — %s matrix-stream bytes per useful flop by width", sm.Spec.Name),
		Header: []string{"nv", "matrix B/flop", "total B/flop"},
	}
	prev := -1.0
	for _, nv := range []int{1, 2, 4, 8} {
		cost := b.Cost(&sm.Matrix).SpMM(nv)
		mbpf := float64(cost.MatrixBytes) / float64(cost.UsefulFlops)
		total := float64(cost.MultBytes+cost.RedBytes) / float64(cost.UsefulFlops)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nv), fmt.Sprintf("%.4f", mbpf), fmt.Sprintf("%.4f", total),
		})
		if prev > 0 && mbpf >= prev {
			return nil, fmt.Errorf("spmm-smoke: matrix bytes/flop did not drop at nv=%d (%.4f -> %.4f)", nv, prev, mbpf)
		}
		prev = mbpf
		if nv > 1 {
			x := perfmodel.InputVector(sm.S.N * nv)
			y := make([]float64, sm.S.N*nv)
			if err := b.MulMat(x, y, nv); err != nil {
				return nil, fmt.Errorf("spmm-smoke: MulMat nv=%d: %w", nv, err)
			}
		}
	}
	return t, nil
}
