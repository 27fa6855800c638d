package core

import (
	"fmt"

	"repro/internal/parallel"
)

// Multi-vector multiplication (SpMM): Y = A·X for nv right-hand sides.
// Vectors are interleaved — x[i*nv+v] is component v of row i — so each
// matrix element streams once while touching nv consecutive vector values,
// raising the flop:byte ratio by ~nv. This extends the paper's kernel to
// the multiple-RHS setting of block Krylov methods; the local-vectors
// index is reused unchanged (one entry covers nv lanes).
//
// The parallel path is a first-class kernel, not a per-call dispatch: the
// chain is assembled once per vector count by the same assembler as MulVec's
// (Kernel.phases, with nv a parameter) and handed to the pool — one
// coordinator handoff, zero allocation in steady state, whatever mix of widths
// runs. For nv ∈ {2, 4, 8} the multiply runs the lower-row template's lane-
// width 2, 4 and 8 cells (lowerrow_gen.go): fully unrolled lanes with scalar
// accumulators over fixed-width windows (x[ci:ci+4:ci+4]), so the lane values
// stay in registers; other widths run its any-width cell. The local vectors
// are the kernel's one store (LocalVectors.Lanes), and the reduction is
// LocalVectors' own with the lane count as a parameter. Per lane, multiply
// and reduction perform the same additions in the same order as MulVec, so
// each output column is bitwise identical to a MulVec of the corresponding
// input column.

// MulMat computes Y = A·X on the kernel's pool for nv interleaved vectors.
// Supported for every reduction method on symmetric matrices; other classes
// and bad dimensions return an error instead of panicking inside the pool.
func (k *Kernel) MulMat(x, y []float64, nv int) error {
	if err := k.checkMat(x, y, nv); err != nil {
		return err
	}
	k.curX, k.curY = x, y
	k.pool.RunPhaseList(k.matList(nv))
	k.curX, k.curY = nil, nil
	return nil
}

// checkMat validates an SpMM request.
func (k *Kernel) checkMat(x, y []float64, nv int) error {
	if k.S.Kind != Sym {
		return fmt.Errorf("core: MulMat supports only symmetric matrices, got %s (multi-RHS bodies have no kind-generalized variant)", k.S.Kind)
	}
	if nv < 1 {
		return fmt.Errorf("core: MulMat with %d vectors", nv)
	}
	if len(x) != k.S.N*nv || len(y) != k.S.N*nv {
		return fmt.Errorf("core: MulMat dims: N=%d nv=%d, len(x)=%d, len(y)=%d",
			k.S.N, nv, len(x), len(y))
	}
	return nil
}

// matList returns the SpMM list for vector count nv, assembling it the first
// time that width runs; every width keeps its own list, MulVec's at one.
func (k *Kernel) matList(nv int) *parallel.PhaseList {
	if nv == 1 {
		return k.plain
	}
	l := grow(&k.mat, nv)
	if *l == nil {
		*l = k.assemble(nil, OpSpMM, nv)
	}
	return *l
}
