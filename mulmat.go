package symspmv

import (
	"fmt"

	"repro/internal/cg"
	"repro/internal/core"
)

// MulMatError is the typed error MulMat and SolveCGBlock return when a
// multi-RHS operation cannot run: the format has no SpMM kernel, the kernel
// is closed, or the arguments are malformed. Match it with errors.As. It is
// an error, never a panic — callers probing formats for SpMM support (the
// autotuner, the fuzz harness) branch on it.
type MulMatError struct {
	Format Format
	NV     int
	Reason string
}

func (e *MulMatError) Error() string {
	return fmt.Sprintf("symspmv: MulMat(%v, nv=%d): %s", e.Format, e.NV, e.Reason)
}

// MulMat computes Y = A·X for several right-hand sides at once (SpMM).
// Vectors are interleaved: x[i*vecs+v] is component v of row i, and Y uses
// the same layout. Streaming the matrix once across all vectors raises the
// kernel's flop:byte ratio by roughly the vector count — the natural
// extension of the paper's bandwidth argument to block Krylov methods. The
// widths 2, 4 and 8 take register-blocked fast paths.
//
// Supported formats: CSR and the SSS family (naive, effective-ranges,
// indexed, colored). Other formats return a *MulMatError; use MulVec per
// column there.
func MulMat(k Kernel, x, y []float64, vecs int) error {
	bk, err := checkMulMat(k, len(x), len(y), vecs)
	if err != nil {
		return err
	}
	if err := bk.mulMatLocked(x, y, vecs); err != nil {
		return &MulMatError{Format: bk.b.ID, NV: vecs, Reason: err.Error()}
	}
	return nil
}

// SupportsMulMat reports whether the kernel can serve MulMat / SolveCGBlock:
// it was built by Matrix.Kernel or AutoKernel on a format with an SpMM
// kernel for the matrix's class, and is still open. Callers planning to
// batch (the serve registry does) probe here instead of trial-dispatching.
func SupportsMulMat(k Kernel) bool {
	bk, ok := k.(*boundKernel)
	return ok && !bk.isClosed() && bk.b.MulMat != nil
}

func checkMulMat(k Kernel, lenX, lenY, vecs int) (*boundKernel, error) {
	bk, ok := k.(*boundKernel)
	if !ok {
		return nil, &MulMatError{NV: vecs, Reason: "requires a Kernel from Matrix.Kernel"}
	}
	if bk.b.MulMat == nil {
		return nil, &MulMatError{Format: bk.b.ID, NV: vecs,
			Reason: fmt.Sprintf("the %v format has no SpMM kernel", bk.b.ID)}
	}
	if vecs < 1 {
		return nil, &MulMatError{Format: bk.b.ID, NV: vecs, Reason: "vector count must be positive"}
	}
	if lenX != bk.n*vecs || lenY != bk.n*vecs {
		return nil, &MulMatError{Format: bk.b.ID, NV: vecs,
			Reason: fmt.Sprintf("dims: N=%d, len(x)=%d, len(y)=%d", bk.n, lenX, lenY)}
	}
	return bk, nil
}

// CGBlockResult reports a block conjugate-gradient solve: per-lane
// convergence flags and residuals plus the shared phase breakdown.
type CGBlockResult = cg.BlockResult

// SolveCGBlock solves nv systems A·x_v = b_v simultaneously with block CG:
// the lanes advance in lockstep, each with its own CG scalars, and every
// iteration streams the matrix once through the kernel's SpMM fast path
// instead of nv times through MulVec. b and x are interleaved like MulMat
// (b[i*nv+v] is lane v of row i); x is the starting guess, updated in place.
// Converged lanes freeze while the rest continue.
//
// The kernel must support MulMat; formats without an SpMM kernel return a
// *MulMatError. Breakdowns (a lane hitting a non-SPD direction or non-finite
// arithmetic) surface as *CGBreakdownError, exactly like SolveCG.
func SolveCGBlock(k Kernel, b, x []float64, nv int, opts CGOptions) (CGBlockResult, error) {
	bk, err := checkMulMat(k, len(b), len(x), nv)
	if err != nil {
		return CGBlockResult{}, err
	}
	if bk.kind != core.Sym {
		// Same SPD requirement as SolveCG: a skew or structural operator can
		// never drive the CG recurrence.
		return CGBlockResult{}, &MulMatError{Format: bk.b.ID, NV: nv,
			Reason: fmt.Sprintf("CG requires a symmetric positive definite operator, got a %s matrix", bk.kind)}
	}
	release, aerr := bk.acquire("SolveCGBlock")
	if aerr != nil {
		return CGBlockResult{}, &MulMatError{Format: bk.b.ID, NV: nv, Reason: "kernel is closed"}
	}
	defer release()
	// Raw closure, not the locked wrapper: the solve holds the kernel mutex
	// for its whole run, and a reordered kernel iterates in its own row
	// order (see SolveCG).
	kb, kx, _ := bk.operands(b, x, nil, nv, true)
	res, err := cg.SolveBlock(bk.b.Op(), bk.pool, kb, kx, nv, opts.cg())
	bk.restore(x, kx, nv)
	return res, err
}
