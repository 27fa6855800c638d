package core

import (
	"fmt"

	"repro/internal/parallel"
)

// The Colored method executes the symmetric SpM×V without any reduction
// phase: a conflict-free block schedule (internal/color) guarantees that all
// blocks running concurrently have disjoint write sets, so every thread
// updates y in place. One phase list chains a diagonal-init phase and
// one phase per color through the pool's spin barrier — the whole operation
// still costs a single coordinator handoff, like the reduction methods.
//
// The init phase exists because, unlike the effective-ranges multiply, a
// colored block cannot assume y[r] is untouched when it runs: transpose
// contributions from blocks of *earlier* colors may already have landed in
// its rows. Seeding y[r] = d_r·x_r up front turns every later write into a
// plain accumulation.

// assembleColored assembles the nv-lane init → color₀ → … → colorₖ₋₁ phase
// list as closures over k.curX/k.curY (see Kernel.assemble); with dot
// non-nil (nv = 1) a final phase leaves the xᵀy partials in
// dot[tid*DotStride], computed over the same uniform chunks as vec.Dot so the
// combined sum is bitwise identical to a dot of the finished output. Every
// phase is compute work — zero reduction by construction, at any width,
// which sampling makes directly observable — and every color has its own
// span name, so the perfetto view shows the schedule's full phase structure.
func (k *Kernel) assembleColored(name string, dot []float64, nv int) []parallel.Phase {
	phases := make([]parallel.Phase, 0, k.sched.NumColors+2)
	phases = append(phases, parallel.ComputePhase(name+"/init",
		func(tid int) { k.diagInitT(tid, nv) }))
	for c := 0; c < k.sched.NumColors; c++ {
		assign := k.sched.Assign[c]
		var ph func(tid int)
		switch {
		case nv > 1:
			cell := laneCell(nv, k.colorBlocksMat2T, k.colorBlocksMat4T, k.colorBlocksMat8T, k.colorBlocksMatT)
			ph = func(tid int) { cell(assign[tid]) }
		case k.S.Kind != Sym:
			ph = func(tid int) { k.colorBlocksKindT(assign[tid], k.curX, k.curY) }
		default:
			ph = func(tid int) { k.colorBlocksT(assign[tid], k.curX, k.curY) }
		}
		phases = append(phases, parallel.ComputePhase(fmt.Sprintf("%s/color%d", name, c), ph))
	}
	if dot != nil {
		phases = append(phases, parallel.ComputePhase(name+"/dot",
			func(tid int) { dot[tid*DotStride] = dotChunkT(k.initPart, tid, k.curX, k.curY) }))
	}
	return phases
}

// diagInitT seeds thread tid's uniform row chunk of the nv-lane output with
// the diagonal contribution, overwriting whatever the previous operation left
// in y. A Skew matrix has no DValues array at all — its diagonal is
// identically zero — so the init writes plain zeros instead of reading
// through nil. The chunk's slices are cut once, so the single-lane loop runs
// unchecked.
func (k *Kernel) diagInitT(tid, nv int) {
	lo, hi := int(k.initPart.Start[tid]), int(k.initPart.End[tid])
	y := k.curY[lo*nv : hi*nv]
	if k.S.DValues == nil {
		clear(y)
		return
	}
	x, dv := k.curX[lo*nv:hi*nv], k.S.DValues[lo:hi]
	if nv == 1 {
		x, y = x[:len(dv)], y[:len(dv)]
		for r, d := range dv {
			y[r] = d * x[r]
		}
		return
	}
	for r, d := range dv {
		xr, yr := x[r*nv:r*nv+nv], y[r*nv:r*nv+nv]
		for v := range yr {
			yr[v] = d * xr[v]
		}
	}
}

// Colors reports the number of color phases of the schedule; zero for
// non-Colored kernels.
func (k *Kernel) Colors() int {
	if k.sched == nil {
		return 0
	}
	return k.sched.NumColors
}
