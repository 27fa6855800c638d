// Package symspmv is a Go library for high-performance symmetric sparse
// matrix-vector multiplication on multicore machines, reproducing
// Gkountouvas et al., "Improving the Performance of the Symmetric Sparse
// Matrix-Vector Multiplication in Multicore" (IPDPS 2013).
//
// The package offers:
//
//   - sparse matrix construction (builder, Matrix Market I/O, generators),
//   - multiple storage formats behind one Kernel interface: CSR (baseline),
//     CSX (compressed, unsymmetric), SSS (symmetric skyline) with three
//     local-vector reduction methods — naive, effective ranges, and the
//     paper's local-vectors *indexing* — plus a conflict-free colored
//     schedule that eliminates the reduction phase entirely, and CSX-Sym
//     (compressed symmetric),
//   - a non-preconditioned Conjugate Gradient solver over any Kernel,
//   - RCM bandwidth reordering,
//   - the paper's measurement protocol and per-kernel traffic accounting.
//
// Quick start:
//
//	b := symspmv.NewBuilder(n)            // symmetric SPD system
//	b.Set(i, j, v)                        // lower triangle
//	A, err := b.Build()
//	k, err := A.Kernel(symspmv.SSSIndexed, symspmv.Threads(4))
//	defer k.Close()
//	k.MulVec(x, y)                        // y = A·x, multithreaded
//
// See the examples/ directory for runnable programs.
package symspmv

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/csx"
	"repro/internal/format"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// Format selects a storage format / kernel configuration. The formats, their
// names and what each can do live in one table (internal/format); Formats
// lists them and ParseFormat resolves their names.
type Format = format.ID

const (
	// CSR is the unsymmetric Compressed Sparse Row baseline.
	CSR = format.CSR
	// CSX is the unsymmetric Compressed Sparse eXtended format.
	CSX = format.CSX
	// SSSNaive is the symmetric SSS kernel with naive full local vectors.
	SSSNaive = format.SSSNaive
	// SSSEffective is SSS with the effective-ranges reduction.
	SSSEffective = format.SSSEffective
	// SSSIndexed is SSS with the paper's local-vectors indexing (the
	// recommended symmetric configuration).
	SSSIndexed = format.SSSIndexed
	// CSXSym is the compressed symmetric format with indexed reduction
	// (highest compression; pays a preprocessing cost).
	CSXSym = format.CSXSym
	// SSSColored is SSS under the conflict-free colored schedule (RACE-style
	// level groups): threads write y directly, even row blocks then odd — no
	// local vectors and no reduction phase at all. It needs a low-bandwidth
	// (e.g. RCM-reordered) matrix, where the schedule keeps every block.
	SSSColored = format.SSSColored
)

// Formats lists every format, in declaration order.
func Formats() []Format { return format.All() }

// ParseFormat resolves a format name as the commands and the server spell
// them: each format's String() and its short aliases (sss, sss-idx, sss-eff,
// sss-color), case-insensitively. The error lists the valid names.
func ParseFormat(name string) (Format, error) { return format.Parse(name) }

// UnsupportedFormatError is the typed error Matrix.Kernel returns when the
// format cannot run the matrix's symmetry class. Match it with errors.As.
type UnsupportedFormatError = format.UnsupportedError

// Matrix is an immutable sparse matrix in one of three symmetry classes:
// symmetric (lower triangle stored, the package's main subject),
// skew-symmetric (A = −Aᵀ: same lower-triangle storage, no diagonal), or
// structurally symmetric (A ≠ Aᵀ but the pattern mirrors: one index
// structure, two value arrays). SymmetryClass reports which; the class
// decides which formats Kernel accepts and whether the CG solves apply.
type Matrix struct {
	coo *matrix.COO
	sss *core.SSS
}

// N returns the matrix dimension.
func (a *Matrix) N() int { return a.sss.N }

// SymmetryClass reports the matrix's symmetry class: "symmetric",
// "skew-symmetric", or "structurally-symmetric".
func (a *Matrix) SymmetryClass() string { return a.sss.Kind.String() }

// NNZ returns the logical nonzeros of the full operator.
func (a *Matrix) NNZ() int { return a.sss.LogicalNNZ() }

// Stats returns structural statistics (bandwidth, per-row counts, sizes).
func (a *Matrix) Stats() matrix.Stats { return matrix.ComputeStats(a.coo) }

// MulVec computes y = A·x serially with the reference kernel. For
// multithreaded or compressed execution, build a Kernel.
func (a *Matrix) MulVec(x, y []float64) { a.sss.MulVec(x, y) }

// Builder accumulates entries of a symmetric matrix.
type Builder struct {
	coo *matrix.COO
	err error
}

// NewBuilder returns a builder for an n×n symmetric matrix.
func NewBuilder(n int) *Builder {
	c := matrix.NewCOO(n, n, 0)
	c.Symmetric = true
	return &Builder{coo: c}
}

// Set records A[i,j] = A[j,i] = v. Duplicate coordinates are summed.
func (b *Builder) Set(i, j int, v float64) {
	if b.err != nil {
		return
	}
	if i < 0 || j < 0 || i >= b.coo.Rows || j >= b.coo.Rows {
		b.err = fmt.Errorf("symspmv: entry (%d,%d) outside %dx%d matrix", i, j, b.coo.Rows, b.coo.Rows)
		return
	}
	if j > i {
		i, j = j, i
	}
	b.coo.Add(i, j, v)
}

// Build finalizes the matrix.
func (b *Builder) Build() (*Matrix, error) {
	if b.err != nil {
		return nil, b.err
	}
	return fromCOO(b.coo.Clone())
}

func fromCOO(c *matrix.COO) (*Matrix, error) {
	c.Normalize()
	s, err := core.FromCOO(c)
	if err != nil {
		return nil, err
	}
	return &Matrix{coo: c, sss: s}, nil
}

// fromGeneral classifies a general (non-Symmetric) COO. A structurally
// symmetric pattern whose values do not mirror becomes a
// structurally-symmetric Matrix (general COO kept, SSS with a second value
// array); everything else keeps the historical contract of taking the lower
// triangle. Numerically symmetric files land on the plain symmetric path —
// the structural kernel would compute the same operator at 8 extra bytes
// per element.
func fromGeneral(c *matrix.COO) (*Matrix, error) {
	c.Normalize()
	if c.PatternSymmetric() {
		if s, err := core.FromCOOStructural(c); err == nil && !slices.Equal(s.Val, s.UVal) {
			return &Matrix{coo: c, sss: s}, nil
		}
	}
	sym, err := c.ToLowerSymmetric()
	if err != nil {
		return nil, err
	}
	return fromCOO(sym)
}

// ReadMatrixMarket loads a matrix from a Matrix Market stream. Symmetric and
// skew-symmetric headers map straight onto the lower-triangle core. General
// files are classified: numerically symmetric ones take the lower triangle
// (the historical contract), a mirrored pattern with unmirrored values
// becomes a structurally-symmetric Matrix, and anything else takes the lower
// triangle as before. Check SymmetryClass when the distinction matters.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) {
	c, err := matrix.ReadMatrixMarket(r)
	if err != nil {
		return nil, err
	}
	if !c.Symmetric {
		return fromGeneral(c)
	}
	return fromCOO(c)
}

// ReadMatrixMarketFile loads a .mtx file (see ReadMatrixMarket for how
// general files are classified).
func ReadMatrixMarketFile(path string) (*Matrix, error) {
	c, err := matrix.ReadMatrixMarketFile(path)
	if err != nil {
		return nil, err
	}
	if !c.Symmetric {
		return fromGeneral(c)
	}
	return fromCOO(c)
}

// WriteMatrixMarket writes the matrix in symmetric coordinate format.
func (a *Matrix) WriteMatrixMarket(w io.Writer) error {
	return matrix.WriteMatrixMarket(w, a.coo)
}

// ReorderRCM returns P·A·Pᵀ under the Reverse Cuthill–McKee permutation,
// along with the permutation itself (perm[old] = new). Reordering reduces
// the matrix bandwidth, which shrinks the symmetric kernels' reduction
// index and increases CSX substructure coverage (§V-D of the paper).
func (a *Matrix) ReorderRCM() (*Matrix, []int32, error) {
	rm, perm, err := (&format.Matrix{S: a.sss, M: a.coo}).Reordered()
	if err != nil {
		return nil, nil, err
	}
	return &Matrix{coo: rm.M, sss: rm.S}, perm, nil
}

// Kernel is a multithreaded y = A·x engine bound to a worker pool. Kernels
// must be released with Close.
//
// A Kernel is safe for concurrent use: every operation (MulVec, MulMat, and
// the solves' inner dispatches) is serialized on an internal mutex, so
// concurrent callers queue rather than corrupt the kernel's per-operation
// state. Long-lived sharing — many request handlers over one prepared
// kernel — is the intended pattern (see internal/serve); parallelism comes
// from the worker pool inside one operation, not from overlapping
// operations, which would only fight over the same memory bandwidth.
type Kernel interface {
	// MulVec computes y = A·x. len(x) == len(y) == N. Safe for concurrent
	// invocation; concurrent calls are serialized.
	MulVec(x, y []float64)
	// Format reports the kernel's storage format.
	Format() Format
	// Threads reports the worker count.
	Threads() int
	// Bytes reports the in-memory size of the encoded matrix.
	Bytes() int64
	// Close releases the worker pool.
	Close()
}

// Option configures kernel construction.
type Option func(*kernelOpts)

type kernelOpts struct {
	threads int
	build   format.Options
}

// Threads sets the worker count (default: GOMAXPROCS).
func Threads(n int) Option {
	return func(o *kernelOpts) { o.threads = n }
}

// CSXOptions overrides the CSX/CSX-Sym detection parameters.
func CSXOptions(opts csx.Options) Option {
	return func(o *kernelOpts) { o.build.CSX = &opts }
}

// Kernel builds a multithreaded kernel for the matrix in the given format.
func (a *Matrix) Kernel(f Format, options ...Option) (Kernel, error) {
	o := kernelOpts{threads: parallel.DefaultThreads()}
	for _, opt := range options {
		opt(&o)
	}
	if o.threads < 1 {
		return nil, errors.New("symspmv: thread count must be positive")
	}
	if !f.Valid() {
		return nil, fmt.Errorf("symspmv: unknown format %v", f)
	}
	// Refuse a class the format's table row does not run before spawning
	// workers.
	if err := f.Desc().Check(0, a.sss.Kind); err != nil {
		return nil, fmt.Errorf("symspmv: %w", err)
	}
	pool := parallel.NewPool(o.threads)
	// Release the workers on every failed construction path — including
	// panics out of the format builders — so an error can never leak the
	// pool's goroutines.
	built := false
	defer func() {
		if !built {
			pool.Close()
		}
	}()
	b, err := format.Build(&format.Matrix{S: a.sss, M: a.coo}, f, pool, o.build)
	if err != nil {
		return nil, fmt.Errorf("symspmv: %w", err)
	}
	built = true
	return &boundKernel{b: b, pool: pool, n: a.sss.N, kind: a.sss.Kind}, nil
}

// boundKernel is a format.Built bound to the pool the facade owns for it.
type boundKernel struct {
	b      *format.Built
	kind   core.SymKind // symmetry class of the source matrix
	pool   *parallel.Pool
	n      int
	closed bool
	// perm is the RCM permutation (perm[old] = new) of a kernel built on
	// P·A·Pᵀ (a reordered autotune plan), nil in natural order. Every call
	// moves its operands into the kernel's order and its result back, once.
	perm    []int32
	scratch []float64

	// mu serializes every operation on the kernel. The underlying engines own
	// per-call mutable state — operand slots the phase closures read, shared
	// local vectors, dot partials, the permuted operands in scratch — so two
	// interleaved operations would corrupt each other. Holding mu for
	// the whole dispatch makes a Kernel safe to share across goroutines:
	// concurrent callers queue, each operation runs alone, and long-lived
	// services (internal/serve) hand one kernel to many request handlers
	// without an external lock. closed is guarded by mu as well, so Close
	// cannot release the pool under a running operation.
	mu sync.Mutex
}

// permuteRows moves row i of src (nv interleaved values) to row perm[i] of
// dst, or row perm[i] of src to row i of dst when back is set; returns dst.
func permuteRows(dst, src []float64, perm []int32, nv int, back bool) []float64 {
	for i, pi := range perm {
		d, s := int(pi)*nv, i*nv
		if back {
			d, s = s, d
		}
		for v := 0; v < nv; v++ {
			dst[d+v] = src[s+v]
		}
	}
	return dst
}

// operands returns an operation's vectors in the kernel's row order: the
// caller's own in natural order, otherwise stretches of scratch holding the
// rows (nv values each) of in, of io when copyIO (a solve's x₀; a product's
// y is only written) and of diag. Callers hold mu and restore io.
func (k *boundKernel) operands(in, io, diag []float64, nv int, copyIO bool) (kin, kio, kdiag []float64) {
	if k.perm == nil {
		return in, io, diag
	}
	n := len(in)
	s := slices.Grow(k.scratch[:0], 2*n+len(diag))[:2*n+len(diag)] // grown on demand
	k.scratch = s
	kin, kio = permuteRows(s[:n], in, k.perm, nv, false), s[n:2*n]
	if copyIO {
		permuteRows(kio, io, k.perm, nv, false)
	}
	if diag != nil {
		kdiag = permuteRows(s[2*n:], diag, k.perm, 1, false)
	}
	return kin, kio, kdiag
}

// restore copies a kernel-order result ky back into the caller's y; a no-op
// in natural order, where ky is y.
func (k *boundKernel) restore(y, ky []float64, nv int) {
	if k.perm != nil {
		permuteRows(y, ky, k.perm, nv, true)
	}
}

// mulVecLocked runs y = A·x alone on the kernel; it panics when the kernel
// is already closed, like MulVec always has.
func (k *boundKernel) mulVecLocked(x, y []float64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		panic("symspmv: MulVec on closed Kernel")
	}
	kx, ky, _ := k.operands(x, y, nil, 1, false)
	k.b.Mul(kx, ky)
	k.restore(y, ky, 1)
}

func (k *boundKernel) mulMatLocked(x, y []float64, vecs int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return errors.New("kernel is closed")
	}
	kx, ky, _ := k.operands(x, y, nil, vecs, false)
	err := k.b.MulMat(kx, ky, vecs)
	k.restore(y, ky, vecs)
	return err
}

func (k *boundKernel) isClosed() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.closed
}

// acquire takes the kernel for a multi-dispatch operation (a whole CG
// solve): the mutex is held until release, so the solve's kernel dispatches
// AND its pool-driven vector operations run without interleaving from other
// callers. Returns a typed error when the kernel was closed while the
// caller waited for the lock.
func (k *boundKernel) acquire(op string) (release func(), err error) {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return nil, fmt.Errorf("symspmv: %s on closed Kernel", op)
	}
	return k.mu.Unlock, nil
}

func (k *boundKernel) MulVec(x, y []float64) { k.mulVecLocked(x, y) }
func (k *boundKernel) Format() Format        { return k.b.ID }
func (k *boundKernel) Threads() int          { return k.pool.Size() }
func (k *boundKernel) Bytes() int64          { return k.b.Bytes }
func (k *boundKernel) Close() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.closed {
		k.closed = true
		k.pool.Close()
	}
}

// CGResult reports a conjugate-gradient solve.
type CGResult = cg.Result

// CGBreakdownError is the typed error SolveCG/SolveCGJacobi return when the
// CG recurrence breaks down (non-SPD operator or non-finite arithmetic);
// match it with errors.As. Failing to converge within MaxIter is not a
// breakdown — check CGResult.Converged for that.
type CGBreakdownError = cg.BreakdownError

// CGOptions configures SolveCG, SolveCGJacobi, and SolveCGBlock.
type CGOptions struct {
	// MaxIter caps iterations (default 10·N).
	MaxIter int
	// Tol is the relative residual target (default 1e-10).
	Tol float64
	// Context, when non-nil, carries the solve's deadline and cancellation:
	// it is checked between iterations, and a cancelled or expired context
	// stops the solve with an error wrapping context.Canceled /
	// context.DeadlineExceeded (match with errors.Is). x holds the last
	// completed iterate. Cancellation latency is one iteration — an SpM×V
	// in flight always runs to its barrier.
	Context context.Context
}

// SolveCG solves A·x = b with the non-preconditioned Conjugate Gradient
// method using kernel k for the SpM×V and k's pool for the vector
// operations. x is the starting guess, updated in place.
//
// For the symmetric formats (SSS*, CSXSym) the solve takes the fused fast
// path: the pᵀ·Ap dot product rides inside the kernel's reduction phase and
// the iteration's vector operations run as one fused chain, so each CG
// iteration costs two coordinator handoffs (three for the formats without
// the fused dot). The iterates are bitwise identical either way.
func SolveCG(k Kernel, b, x []float64, opts CGOptions) (CGResult, error) {
	return solveCG("SolveCG", nil, k, b, x, opts)
}

// SolveCGJacobi solves A·x = b with Jacobi-(diagonal-)preconditioned CG.
// The preconditioner is built from A's diagonal (a zero entry leaves its row
// unpreconditioned); the paper treats preconditioning as orthogonal to the
// SpM×V optimization. The solve is SolveCG's iteration — the same fused fast
// path and handoff count — with z = D⁻¹·r folded into its vector sweeps: one
// multiply per element more. A must be the matrix the kernel was built from.
func SolveCGJacobi(a *Matrix, k Kernel, b, x []float64, opts CGOptions) (CGResult, error) {
	return solveCG("SolveCGJacobi", a.sss, k, b, x, opts)
}

// solveCG runs SolveCG, or SolveCGJacobi on the diagonal of a when a is set.
func solveCG(op string, a *core.SSS, k Kernel, b, x []float64, opts CGOptions) (CGResult, error) {
	bk, err := checkKernel(k, b, x, op)
	if err != nil {
		return CGResult{}, err
	}
	var diag []float64
	if a != nil {
		if a.N != bk.n {
			return CGResult{}, fmt.Errorf("symspmv: %s: matrix N=%d, kernel N=%d", op, a.N, bk.n)
		}
		diag = a.DValues
	}
	release, err := bk.acquire(op)
	if err != nil {
		return CGResult{}, err
	}
	defer release()
	// The operator calls the kernel's raw closures, not the locked wrappers:
	// the solve holds the mutex for its entire run (it also drives vector
	// operations on the kernel's pool, which a per-call lock would not
	// cover), so locking again per inner dispatch would self-deadlock. A
	// reordered kernel iterates in its own row order: b, x₀ and the diagonal
	// are permuted once here and x once on the way out.
	kb, kx, kd := bk.operands(b, x, diag, 1, true)
	var res CGResult
	if a == nil {
		res, err = cg.Solve(bk.b.Op(), bk.pool, kb, kx, opts.cg())
	} else {
		res, err = cg.SolveJacobi(bk.b.Op(), kd, bk.pool, kb, kx, opts.cg())
	}
	bk.restore(x, kx, 1)
	return res, err
}

func (o CGOptions) cg() cg.Options {
	return cg.Options{MaxIter: o.MaxIter, Tol: o.Tol, Context: o.Context}
}

func checkKernel(k Kernel, b, x []float64, op string) (*boundKernel, error) {
	bk, ok := k.(*boundKernel)
	if !ok {
		return nil, fmt.Errorf("symspmv: %s requires a Kernel from Matrix.Kernel", op)
	}
	if bk.kind != core.Sym {
		// CG requires a symmetric positive definite operator. A
		// skew-symmetric one never is (xᵀAx = 0 identically), and a
		// structurally symmetric one is not even symmetric — fail up front
		// with the class instead of letting the recurrence break down (or the
		// Jacobi preconditioner read the absent diagonal).
		return nil, fmt.Errorf("symspmv: %s requires a symmetric positive definite operator, got a %s matrix", op, bk.kind)
	}
	if len(b) != bk.n || len(x) != bk.n {
		return nil, fmt.Errorf("symspmv: %s dims: N=%d, len(b)=%d, len(x)=%d", op, bk.n, len(b), len(x))
	}
	return bk, nil
}
