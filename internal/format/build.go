package format

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/csx"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
	"repro/internal/reorder"
)

// Matrix is what a format is built from: S and its COO form describe the
// same operator. Build one with NewMatrix or Reordered.
type Matrix struct {
	S *core.SSS
	// CSR is the expanded operator the unsymmetric formats run and price. A
	// caller that already has it sets it; otherwise the first build that needs
	// it fills it in, so building several formats from one Matrix expands once.
	CSR      *csr.Matrix
	coo      *matrix.COO        // the COO form, nil on a reordered matrix,
	permuted func() *matrix.COO // whose COO builds on first call, once
}

// NewMatrix returns the Matrix of s and its COO form c: symmetric
// lower-triangular storage for symmetric and skew matrices and the general
// matrix for structural ones.
func NewMatrix(s *core.SSS, c *matrix.COO) Matrix { return Matrix{S: s, coo: c} }

// COO returns the COO form (safe for concurrent use): the CSR and CSX
// builds, statistics and writers read it, never an SSS kernel.
func (m *Matrix) COO() *matrix.COO {
	if m.permuted != nil {
		return m.permuted()
	}
	return m.coo
}

func (m *Matrix) expanded() *csr.Matrix {
	if m.CSR == nil {
		m.CSR = csr.FromCOO(m.COO())
	}
	return m.CSR
}

// Reordered returns P·A·Pᵀ under the Reverse Cuthill–McKee permutation of
// the COO form and the permutation (perm[old] = new). The SSS is permuted
// where it lies, for its own class; the COO form waits for its first reader.
func (m *Matrix) Reordered() (*Matrix, []int32, error) {
	src := m.COO()
	perm, err := reorder.RCM(src)
	if err != nil {
		return nil, nil, err
	}
	s, err := m.S.Permute(perm)
	if err != nil {
		return nil, nil, err
	}
	return &Matrix{S: s, permuted: sync.OnceValue(func() *matrix.COO {
		pm, _ := src.Permute(perm) // RCM's permutation of src: cannot fail
		return pm
	})}, perm, nil
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
	// MulDot computes y = A·x over nv interleaved vectors and sets dots[v]
	// to lane v's xᵀy in the same dispatch; nil unless the format has
	// FusedDot. Beyond one lane it runs where MulMat does.
	MulDot func(x, y []float64, nv int, dots []float64) error
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
	// Sym is the encoded CSX-Sym matrix, what SaveKernel writes.
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
		MulMat: pk.MulMat,
		Bytes:  a.Bytes(),
		Cost:   func(*Matrix) perfmodel.SpMVCost { return perfmodel.CSRCost(a) },
	}, nil
}

func buildCSX(_ *Descriptor, m *Matrix, pool *parallel.Pool, o Options) (*Built, error) {
	mx := csx.NewMatrix(m.COO(), pool.Size(), o.csx())
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
		MulDot: k.MulMatDot,
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
	return BindSym(csx.NewSym(m.S, pool.Size(), core.Indexed, o.csx()), pool), nil
}

// BindSym binds an encoded CSX-Sym matrix, built or loaded, to pool.
func BindSym(smx *csx.SymMatrix, pool *parallel.Pool) *Built {
	return &Built{
		ID:  CSXSym,
		Mul: func(x, y []float64) { smx.MulVec(pool, x, y) },
		MulDot: func(x, y []float64, nv int, dots []float64) error {
			if nv != 1 {
				return &UnsupportedError{CSXSym, fmt.Sprintf("the %v format has no %s", CSXSym, capList(MulMat))}
			}
			dots[0] = smx.MulVecDot(pool, x, y)
			return nil
		},
		Bytes: smx.Bytes(),
		Cost:  func(m *Matrix) perfmodel.SpMVCost { return perfmodel.CSXSymCost(smx, m.S) },
		Sym:   smx,
	}
}

// Op returns the kernel as the CG loop's operator at any lane width, fused
// to its dot when the format has one. Beyond one lane the caller has checked
// MulMat is non-nil.
func (b *Built) Op() cg.Operator {
	return cg.Operator{
		Mul: func(x, y []float64, nv int) error {
			if nv == 1 {
				b.Mul(x, y)
				return nil
			}
			return b.MulMat(x, y, nv)
		},
		MulDot: b.MulDot,
	}
}
