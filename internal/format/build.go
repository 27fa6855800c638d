package format

import (
	"time"

	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/csx"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

// Matrix is what a format is built from. S and M describe the same operator:
// M is symmetric lower-triangular storage for symmetric and skew matrices and
// the general matrix for structural ones.
type Matrix struct {
	S *core.SSS
	M *matrix.COO
	// CSR is the expanded operator the unsymmetric formats run and price. A
	// caller that already has it sets it; otherwise the first build that needs
	// it fills it in, so building several formats from one Matrix expands once.
	CSR *csr.Matrix
}

func (m *Matrix) expanded() *csr.Matrix {
	if m.CSR == nil {
		m.CSR = csr.FromCOO(m.M)
	}
	return m.CSR
}

// Options are the optional preprocessing products of a build.
type Options struct {
	// CSX overrides the CSX / CSX-Sym detection parameters (nil: defaults).
	CSX *csx.Options
}

func (o Options) csx() csx.Options {
	if o.CSX != nil {
		return *o.CSX
	}
	return csx.DefaultOptions()
}

// Built is one constructed kernel, bound to the pool it was built on.
type Built struct {
	ID ID
	// Mul computes y = A·x.
	Mul func(x, y []float64)
	// MulDot computes y = A·x and returns xᵀ·y in the same dispatch; nil
	// unless the format has FusedDot.
	MulDot func(x, y []float64) float64
	// MulMat computes Y = A·X over nv interleaved vectors; nil unless the
	// format has MulMat on this matrix's class.
	MulMat func(x, y []float64, nv int) error
	// Bytes is the encoded matrix size, Preproc the wall-clock build time.
	Bytes   int64
	Preproc time.Duration
	// Cost is the exact per-operation flop/byte account of the built kernel
	// for the platform model, from the real data structures; m is the Matrix
	// it was built from, whose access profile some accounts read (taken as an
	// argument so a long-lived kernel does not hold its source alive).
	Cost func(m *Matrix) perfmodel.SpMVCost

	// Kernel is the SSS engine (SSS formats only): what attribution binds to
	// and the phase-timing experiments drive.
	Kernel *core.Kernel
	// Sym is the encoded CSX-Sym matrix, set when it can be persisted.
	Sym *csx.SymMatrix
}

// Build constructs format f for m on pool. A class or capability the format
// lacks is an *UnsupportedError; the pool stays the caller's to close.
func Build(m *Matrix, f ID, pool *parallel.Pool, o Options) (*Built, error) {
	d := f.Desc()
	if err := d.Check(0, m.S.Kind); err != nil {
		return nil, err
	}
	t0 := time.Now()
	b, err := d.build(d, m, pool, o)
	if err != nil {
		return nil, err
	}
	b.ID = f
	b.Preproc = time.Since(t0)
	return b, nil
}

func buildCSR(_ *Descriptor, m *Matrix, pool *parallel.Pool, _ Options) (*Built, error) {
	a := m.expanded()
	pk := csr.NewParallel(a, pool)
	return &Built{
		Mul:    pk.MulVec,
		MulMat: func(x, y []float64, nv int) error { pk.MulMat(x, y, nv); return nil },
		Bytes:  a.Bytes(),
		Cost:   func(*Matrix) perfmodel.SpMVCost { return perfmodel.CSRCost(a) },
	}, nil
}

func buildCSX(_ *Descriptor, m *Matrix, pool *parallel.Pool, o Options) (*Built, error) {
	mx := csx.NewMatrix(m.M, pool.Size(), o.csx())
	return &Built{
		Mul:   func(x, y []float64) { mx.MulVec(pool, x, y) },
		Bytes: mx.Bytes(),
		Cost:  func(m *Matrix) perfmodel.SpMVCost { return perfmodel.CSXCost(mx, m.expanded()) },
	}, nil
}

// sssMethod is the reduction method behind each SSS format.
var sssMethod = map[ID]core.ReductionMethod{
	SSSNaive: core.Naive, SSSEffective: core.EffectiveRanges,
	SSSIndexed: core.Indexed, SSSColored: core.Colored,
}

func buildSSS(d *Descriptor, m *Matrix, pool *parallel.Pool, _ Options) (*Built, error) {
	k := core.NewKernel(m.S, sssMethod[d.ID], pool)
	b := &Built{
		Mul:    k.MulVec,
		MulDot: k.MulVecDot,
		Bytes:  m.S.Bytes(),
		Cost:   func(*Matrix) perfmodel.SpMVCost { return perfmodel.SSSCost(k) },
		Kernel: k,
	}
	if d.Has(MulMat, m.S.Kind) {
		b.MulMat = k.MulMat
	}
	return b, nil
}

func buildCSXSym(_ *Descriptor, m *Matrix, pool *parallel.Pool, o Options) (*Built, error) {
	smx := csx.NewSym(m.S, pool.Size(), core.Indexed, o.csx())
	return &Built{
		Mul:    func(x, y []float64) { smx.MulVec(pool, x, y) },
		MulDot: func(x, y []float64) float64 { return smx.MulVecDot(pool, x, y) },
		Bytes:  smx.Bytes(),
		Cost:   func(m *Matrix) perfmodel.SpMVCost { return perfmodel.CSXSymCost(smx, m.S) },
		Sym:    smx,
	}, nil
}

// Permute rewraps a kernel built on P·A·Pᵀ (perm[old] = new) so Mul and
// MulDot compute on A in the caller's row order; xᵀ·y is permutation-
// invariant, so the fused dot survives. MulMat and Sym both assume the
// kernel's row order is the matrix's and are dropped.
func (b *Built) Permute(perm []int32) {
	xp := make([]float64, len(perm))
	yp := make([]float64, len(perm))
	scatter := func(x []float64) {
		for i, pi := range perm {
			xp[pi] = x[i]
		}
	}
	gather := func(y []float64) {
		for i, pi := range perm {
			y[i] = yp[pi]
		}
	}
	mul := b.Mul
	b.Mul = func(x, y []float64) { scatter(x); mul(xp, yp); gather(y) }
	if md := b.MulDot; md != nil {
		b.MulDot = func(x, y []float64) float64 {
			scatter(x)
			dot := md(xp, yp)
			gather(y)
			return dot
		}
	}
	b.MulMat, b.Sym = nil, nil
}

// op adapts a Built to the cg operator interfaces through its current
// closures; fusedOp adds cg.MulVecDotter so cg.Solve takes the two-handoff
// fused iteration.
type op struct{ b *Built }

func (o op) MulVec(x, y []float64)               { o.b.Mul(x, y) }
func (o op) MulMat(x, y []float64, nv int) error { return o.b.MulMat(x, y, nv) }

type fusedOp struct{ op }

func (o fusedOp) MulVecDot(x, y []float64) float64 { return o.b.MulDot(x, y) }

// Op returns the kernel as a cg operator; it implements cg.MulVecDotter when
// the kernel has a fused dot.
func (b *Built) Op() cg.MulVecer {
	if b.MulDot != nil {
		return fusedOp{op{b}}
	}
	return op{b}
}

// BlockOp returns the kernel as the block solver's SpMM operator; the caller
// has checked MulMat is non-nil.
func (b *Built) BlockOp() cg.MulMater { return op{b} }
