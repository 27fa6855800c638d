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
// multiply→reduce chain is assembled once per vector count as a labelled
// phase list over the kernel's operand slots and handed to the pool, exactly
// like MulVec — one coordinator handoff, zero allocation in steady state. For
// nv ∈ {2, 4, 8} the multiply runs the lower-row template's lane-width 2, 4
// and 8 cells (lowerrow_gen.go): fully unrolled lanes with scalar accumulators
// over fixed-width windows (x[ci:ci+4:ci+4]), so the lane values stay in
// registers; per lane they perform the same additions in the same order as
// the scalar cell, so each output column is bitwise identical to a MulVec of
// the corresponding input column. Only the multiply is specialized: the
// reductions are streaming passes and stay generic.

// MulMat computes Y = A·X serially for nv interleaved vectors. Only
// Kind=Sym matrices are supported: the SpMM bodies are specialized to the
// symmetric scatter.
func (s *SSS) MulMat(x, y []float64, nv int) {
	if s.Kind != Sym {
		panic(fmt.Sprintf("core: MulMat supports only symmetric matrices, got %s", s.Kind))
	}
	if nv < 1 {
		panic(fmt.Sprintf("core: MulMat with %d vectors", nv))
	}
	if len(x) != s.N*nv || len(y) != s.N*nv {
		panic(fmt.Sprintf("core: MulMat dims: N=%d nv=%d, len(x)=%d, len(y)=%d", s.N, nv, len(x), len(y)))
	}
	for r := 0; r < s.N; r++ {
		d := s.DValues[r]
		for v := 0; v < nv; v++ {
			y[r*nv+v] = d * x[r*nv+v]
		}
	}
	for r := 0; r < s.N; r++ {
		xr := x[r*nv : r*nv+nv]
		yr := y[r*nv : r*nv+nv]
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			c := int(s.ColIdx[j])
			a := s.Val[j]
			xc := x[c*nv : c*nv+nv]
			yc := y[c*nv : c*nv+nv]
			for v := 0; v < nv; v++ {
				yr[v] += a * xc[v]
				yc[v] += a * xr[v]
			}
		}
	}
}

// MulMat computes Y = A·X on the kernel's pool for nv interleaved vectors.
// Supported for every reduction method on symmetric matrices; other classes
// and bad dimensions return an error instead of panicking inside the pool.
func (k *Kernel) MulMat(x, y []float64, nv int) error {
	if err := k.checkMat(x, y, nv); err != nil {
		return err
	}
	if nv == 1 {
		k.MulVec(x, y)
		return nil
	}
	l := k.matList(nv)
	k.curX, k.curY = x, y
	k.pool.RunPhaseList(l)
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

// matList returns the cached SpMM list for vector count nv — multiply→reduce
// for the local-vector methods, init→colors for the colored schedule —
// rebuilding it only when nv changes.
func (k *Kernel) matList(nv int) *parallel.PhaseList {
	if k.mat != nil && k.matNV == nv {
		return k.mat
	}
	var phases []parallel.Phase
	if k.Method == Colored {
		phases = k.assembleColoredMat(nv)
	} else {
		k.ensureWideLocals(nv)
		var mult, red func(int)
		switch k.Method {
		case Naive:
			mult = k.matMultNaive(nv)
			red = func(tid int) { k.reduceMatNaiveT(tid, nv) }
		case Indexed:
			mult = k.matMultEffective(nv)
			red = func(tid int) { k.reduceMatIndexedT(tid, nv) }
		default: // EffectiveRanges
			mult = k.matMultEffective(nv)
			red = func(tid int) { k.reduceMatEffectiveT(tid, nv) }
		}
		name := k.Method.String() + "-spmm"
		phases = []parallel.Phase{
			parallel.ComputePhase(name+"/multiply", mult),
			parallel.ReductionPhase(name+"/reduce", red),
		}
	}
	k.mat, k.matNV = k.newList(phases, spmmObs[k.Method], OpSpMM, nv), nv
	return k.mat
}

// matMultNaive picks the naive multiply body: register-blocked for
// nv ∈ {2, 4, 8}, generic otherwise.
func (k *Kernel) matMultNaive(nv int) func(int) {
	switch nv {
	case 2:
		return k.mulMatNaive2T
	case 4:
		return k.mulMatNaive4T
	case 8:
		return k.mulMatNaive8T
	default:
		return func(tid int) { k.mulMatNaiveT(tid, nv) }
	}
}

// matMultEffective picks the effective-ranges multiply body (shared by the
// Indexed method).
func (k *Kernel) matMultEffective(nv int) func(int) {
	switch nv {
	case 2:
		return k.mulMatEffective2T
	case 4:
		return k.mulMatEffective4T
	case 8:
		return k.mulMatEffective8T
	default:
		return func(tid int) { k.mulMatEffectiveT(tid, nv) }
	}
}

// wideLocals holds the nv-wide local vectors, sized lazily per kernel.
type wideLocals struct {
	nv   int
	vecs [][]float64
}

func (k *Kernel) ensureWideLocals(nv int) {
	if k.wide != nil && k.wide.nv == nv {
		return
	}
	w := &wideLocals{nv: nv, vecs: make([][]float64, k.p)}
	for t := 0; t < k.p; t++ {
		switch k.Method {
		case Naive:
			w.vecs[t] = make([]float64, k.S.N*nv)
		default:
			w.vecs[t] = make([]float64, int(k.Part.Start[t])*nv)
		}
	}
	k.wide = w
}

// reduceMatNaiveT folds the p full-length wide locals into y over thread
// tid's uniform row chunk, re-zeroing the locals in the same pass; per lane
// the summation order matches reduceNaiveT exactly.
func (k *Kernel) reduceMatNaiveT(tid, nv int) {
	y := k.curY
	lo, hi := k.LV.redPart.Start[tid], k.LV.redPart.End[tid]
	for r := lo; r < hi; r++ {
		ri := int(r) * nv
		for v := 0; v < nv; v++ {
			sum := 0.0
			for t := 0; t < k.p; t++ {
				sum += k.wide.vecs[t][ri+v]
				k.wide.vecs[t][ri+v] = 0
			}
			y[ri+v] = sum
		}
	}
}

// reduceMatEffectiveT folds the wide effective regions into y with the same
// owner-cursor walk (and per-lane summation order) as reduceEffectiveT.
func (k *Kernel) reduceMatEffectiveT(tid, nv int) {
	y := k.curY
	lv := k.LV
	lo, hi := lv.redPart.Start[tid], lv.redPart.End[tid]
	if lo >= hi {
		return
	}
	own := lv.Part.Owner(lo)
	for r := lo; r < hi; r++ {
		for r >= lv.Part.End[own] {
			own++
		}
		ri := int(r) * nv
		for t := own + 1; t < k.p; t++ {
			local := k.wide.vecs[t]
			if len(local) <= ri {
				continue
			}
			for v := 0; v < nv; v++ {
				y[ri+v] += local[ri+v]
				local[ri+v] = 0
			}
		}
	}
}

// reduceMatIndexedT walks worker tid's slice of the reduction-ordered
// conflict index — one entry covers nv lanes — streaming each wide local
// sequentially like reduceIndexedT.
func (k *Kernel) reduceMatIndexedT(tid, nv int) {
	y := k.curY
	entries := k.LV.redEntries[k.LV.redSplit[tid]:k.LV.redSplit[tid+1]]
	for e := 0; e < len(entries); {
		vid := entries[e].Vid
		local := k.wide.vecs[vid]
		for ; e < len(entries) && entries[e].Vid == vid; e++ {
			base := int(entries[e].Idx) * nv
			yb := y[base : base+nv : base+nv]
			lb := local[base : base+nv : base+nv]
			for v := range yb {
				yb[v] += lb[v]
				lb[v] = 0
			}
		}
	}
}
