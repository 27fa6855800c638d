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

// assembleColored assembles the init → color₀ → … → colorₖ₋₁ phase list as
// closures over k.curX/k.curY (see Kernel.assemble); with dot non-nil a
// final phase leaves the xᵀy partials in dot[tid*DotStride], computed over
// the same uniform chunks as vec.Dot so the combined sum is bitwise
// identical to a dot of the finished output. Every phase is compute work —
// zero reduction by construction, which sampling makes directly observable —
// and every color has its own span name, so the perfetto view shows the
// schedule's full phase structure.
func (k *Kernel) assembleColored(dot []float64) []parallel.Phase {
	name := k.Method.String()
	phases := make([]parallel.Phase, 0, k.sched.NumColors+2)
	phases = append(phases, parallel.ComputePhase(name+"/init",
		func(tid int) { k.diagInitT(tid, k.curX, k.curY) }))
	for c := 0; c < k.sched.NumColors; c++ {
		assign := k.sched.Assign[c]
		ph := func(tid int) { k.colorBlocksT(assign[tid], k.curX, k.curY) }
		if k.S.Kind != Sym {
			ph = func(tid int) { k.colorBlocksKindT(assign[tid], k.curX, k.curY) }
		}
		phases = append(phases, parallel.ComputePhase(fmt.Sprintf("%s/color%d", name, c), ph))
	}
	if dot != nil {
		phases = append(phases, parallel.ComputePhase(name+"/dot",
			func(tid int) { dot[tid*DotStride] = k.dotChunkColoredT(tid, k.curX, k.curY) }))
	}
	return phases
}

// diagInitT seeds thread tid's uniform row chunk with the diagonal
// contribution, overwriting whatever the previous operation left in y. A
// Skew matrix has no DValues array at all — its diagonal is identically
// zero — so the init writes plain zeros instead of reading through nil.
func (k *Kernel) diagInitT(tid int, x, y []float64) {
	s := k.S
	if s.DValues == nil {
		for r := k.initPart.Start[tid]; r < k.initPart.End[tid]; r++ {
			y[r] = 0
		}
		return
	}
	for r := k.initPart.Start[tid]; r < k.initPart.End[tid]; r++ {
		y[r] = s.DValues[r] * x[r]
	}
}

// dotChunkColoredT computes the xᵀy partial over thread tid's uniform chunk.
func (k *Kernel) dotChunkColoredT(tid int, x, y []float64) float64 {
	sum := 0.0
	for r := k.initPart.Start[tid]; r < k.initPart.End[tid]; r++ {
		sum += x[r] * y[r]
	}
	return sum
}

// Colors reports the number of color phases of the schedule; zero for
// non-Colored kernels.
func (k *Kernel) Colors() int {
	if k.sched == nil {
		return 0
	}
	return k.sched.NumColors
}

// assembleColoredMat assembles the cached nv-wide SpMM phase list over the
// same schedule: the colored method needs no wide local vectors at all,
// each phase writes the interleaved output directly (multi-RHS costs zero
// extra reduction). nv ∈ {2, 4, 8} run the template's register-blocked
// direct-write cells (lowerrow_gen.go); other widths run its nv-wide cell.
func (k *Kernel) assembleColoredMat(nv int) []parallel.Phase {
	name := k.Method.String() + "-spmm"
	phases := make([]parallel.Phase, 0, k.sched.NumColors+1)
	phases = append(phases, parallel.ComputePhase(name+"/init",
		func(tid int) { k.diagInitMatT(tid, nv) }))
	for c := 0; c < k.sched.NumColors; c++ {
		assign := k.sched.Assign[c]
		var ph func(int)
		switch nv {
		case 2:
			ph = func(tid int) { k.colorBlocksMat2T(assign[tid]) }
		case 4:
			ph = func(tid int) { k.colorBlocksMat4T(assign[tid]) }
		case 8:
			ph = func(tid int) { k.colorBlocksMat8T(assign[tid]) }
		default:
			ph = func(tid int) { k.colorBlocksMatT(assign[tid], nv) }
		}
		phases = append(phases, parallel.ComputePhase(fmt.Sprintf("%s/color%d", name, c), ph))
	}
	return phases
}

// diagInitMatT seeds thread tid's uniform row chunk of the interleaved
// output with the diagonal contribution.
func (k *Kernel) diagInitMatT(tid, nv int) {
	s := k.S
	x, y := k.curX, k.curY
	for r := k.initPart.Start[tid]; r < k.initPart.End[tid]; r++ {
		d := s.DValues[r]
		ri := int(r) * nv
		for v := 0; v < nv; v++ {
			y[ri+v] = d * x[ri+v]
		}
	}
}
