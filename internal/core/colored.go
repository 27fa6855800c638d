package core

import (
	"fmt"

	"repro/internal/parallel"
)

// The Colored method executes the symmetric SpM×V without any reduction
// phase, on the two-phase schedule of internal/color: each thread runs its
// range of the nnz partition without the elements whose column lies below
// the range's first row (phase 1, which assigns every y[r] as the
// effective-ranges cell does), then those deferred elements alone (phase 2),
// whose write sets the schedule keeps disjoint. One phase list chains the
// phases through the pool's spin barrier, so the whole operation still costs
// a single coordinator handoff, like the reduction methods.

// assembleColored assembles the nv-lane phase-1 → phase-2 list as closures
// over k.curX/k.curY (see Kernel.assemble); a schedule that defers nothing
// has phase 1 alone. With dot non-nil a final phase leaves each lane's xᵀy
// partials in dot (dotLanes), computed over the same uniform chunks as
// vec.MultiDots so each lane's combined sum is bitwise identical to a dot of
// the finished output. Every phase is compute work — zero reduction by
// construction, at any width, which sampling makes directly observable — and
// every phase has its own span name.
func (k *Kernel) assembleColored(name string, dot []float64, nv int) []parallel.Phase {
	var cell func(tid int, cross bool)
	switch {
	case nv == 2:
		cell = k.mulMatColored2T
	case nv == 4:
		cell = k.mulMatColored4T
	case nv == 8:
		cell = k.mulMatColored8T
	case nv > 1:
		cell = func(tid int, cross bool) { k.mulMatColoredT(tid, cross, nv) }
	case k.S.Kind != Sym:
		cell = func(tid int, cross bool) { k.multiplyColoredKindT(tid, cross, k.curX, k.curY) }
	default:
		cell = func(tid int, cross bool) { k.multiplyColoredT(tid, cross, k.curX, k.curY) }
	}
	phases := make([]parallel.Phase, 0, k.sched.NumColors+1)
	for c := range k.sched.NumColors {
		phases = append(phases, parallel.ComputePhase(fmt.Sprintf("%s/color%d", name, c),
			func(tid int) { cell(tid, c == 1) }))
	}
	if dot != nil {
		phases = append(phases, parallel.ComputePhase(name+"/dot",
			func(tid int) { dotChunkT(k.dotRows, tid, nv, k.curX, k.curY, dotLanes(dot, tid, nv)) }))
	}
	return phases
}

// Colors reports the number of phases of the colored schedule; zero for
// non-Colored kernels.
func (k *Kernel) Colors() int {
	if k.sched == nil {
		return 0
	}
	return k.sched.NumColors
}
