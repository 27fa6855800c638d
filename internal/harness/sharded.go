package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

// shardedDomains are the synthetic topologies the sharded experiment sweeps:
// the two-socket Gainestown shape and a four-domain machine, each with two
// workers per domain so both the intra-domain combine and the cross-domain
// fold have real work.
var shardedDomains = []int{2, 4}

// shardedMethods are the local-vector reduction methods the hierarchical
// schedule applies to. Atomic and Colored have no reduction stream to stage,
// so flat-vs-hierarchical is not a meaningful comparison for them.
var shardedMethods = []core.ReductionMethod{core.Naive, core.EffectiveRanges, core.Indexed}

// Sharded compares the flat all-to-all reduction against the hierarchical
// two-level schedule on multi-domain pools: the exact cross-domain reduction
// bytes of both kernels (from Traffic.RedCrossBytes), the resulting modeled
// speedup on the NUMA Gainestown platform, and a host-measured per-phase
// breakdown of the hierarchical chain. It returns an error if any suite
// matrix fails the acceptance bound — the hierarchical cross-domain bytes
// must be strictly below flat at every domain count ≥ 2.
func Sharded(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
	cfg = cfg.withDefaults()
	bytesTab := &Table{
		Title: "Sharded — cross-domain reduction bytes, flat vs hierarchical",
		Note: "exact per-operation bytes crossing a domain boundary; p = 2·D workers;\n" +
			"modeled speedup prices both kernels on Gainestown (2 sockets, QPI cross-BW)",
		Header: []string{"Matrix", "D", "p", "Method", "FlatXBytes", "HierXBytes", "Saved", "ModelSpeedup"},
	}
	phaseTab := &Table{
		Title:  "Sharded — hierarchical phase breakdown (host-measured, D=2, p=4)",
		Note:   "critical-path time per phase kind over the measurement iterations",
		Header: []string{"Matrix", "Method", "Compute", "Reduction", "Barrier", "Phases"},
	}
	pl := perfmodel.Gainestown

	for _, sm := range suite {
		for _, d := range shardedDomains {
			p := 2 * d
			pool := parallel.NewPoolDomains(p, d)
			var flatTotal, hierTotal int64
			for _, method := range shardedMethods {
				flat, err := core.NewKernelOpts(sm.S, method, pool, core.KernelOptions{FlatReduction: true})
				if err != nil {
					pool.Close()
					return nil, fmt.Errorf("sharded: %s flat %s: %w", sm.Spec.Name, method, err)
				}
				hier, err := core.NewKernelOpts(sm.S, method, pool, core.KernelOptions{})
				if err != nil {
					pool.Close()
					return nil, fmt.Errorf("sharded: %s hier %s: %w", sm.Spec.Name, method, err)
				}
				if !hier.Hierarchical() {
					pool.Close()
					return nil, fmt.Errorf("sharded: %s %s d=%d: kernel did not go hierarchical", sm.Spec.Name, method, d)
				}
				fx := flat.Traffic().RedCrossBytes
				hx := hier.Traffic().RedCrossBytes
				flatTotal += fx
				hierTotal += hx
				speedup := perfmodel.SSSCost(flat).Seconds(pl, p) / perfmodel.SSSCost(hier).Seconds(pl, p)
				saved := 0.0
				if fx > 0 {
					saved = 100 * (1 - float64(hx)/float64(fx))
				}
				bytesTab.Rows = append(bytesTab.Rows, []string{
					sm.Spec.Name,
					fmt.Sprintf("%d", d),
					fmt.Sprintf("%d", p),
					method.String(),
					fmt.Sprintf("%d", fx),
					fmt.Sprintf("%d", hx),
					fmt.Sprintf("%.1f%%", saved),
					fmt.Sprintf("%.2fx", speedup),
				})

				if d == 2 {
					// Capped: the phase shape, not the absolute time, is the point here.
					pt, _ := measureSpMM(hier, sm.S.N, 1, min(cfg.Iterations, 16))
					per := pt.PerOp()
					phaseTab.Rows = append(phaseTab.Rows, []string{
						sm.Spec.Name,
						method.String(),
						fmt.Sprintf("%v", per.Compute),
						fmt.Sprintf("%v", per.Reduction),
						fmt.Sprintf("%v", per.Barrier),
						fmt.Sprintf("%d", per.Phases),
					})
				}
			}
			pool.Close()
			cfg.logf("sharded: %-14s d=%d cross bytes flat=%d hier=%d", sm.Spec.Name, d, flatTotal, hierTotal)
			if hierTotal >= flatTotal {
				return nil, fmt.Errorf(
					"sharded: %s at D=%d: hierarchical cross-domain bytes %d not strictly below flat %d",
					sm.Spec.Name, d, hierTotal, flatTotal)
			}
		}
	}
	return []*Table{bytesTab, phaseTab}, nil
}
