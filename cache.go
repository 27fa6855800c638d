package symspmv

import (
	"fmt"

	"repro/internal/csx"
	"repro/internal/format"
	"repro/internal/parallel"
)

// CSX-Sym preprocessing (substructure detection and encoding) costs the
// equivalent of tens to hundreds of SpM×V operations (§V-E of the paper).
// These helpers persist the encoded matrix so the cost is paid once per
// matrix and amortized across solver runs.

// SaveKernel persists a CSX-Sym kernel's encoded matrix to path in the
// library's versioned, checksummed binary format. Only natural-order CSXSym
// kernels can be persisted (the other formats rebuild in O(nnz) anyway; a
// reordered plan's blob is in RCM order and would load as another operator).
func SaveKernel(k Kernel, path string) error {
	bk, ok := k.(*boundKernel)
	if !ok || bk.b.Sym == nil {
		return fmt.Errorf("symspmv: SaveKernel supports CSX-Sym kernels only (got %v)", k.Format())
	}
	if bk.perm != nil {
		return fmt.Errorf("symspmv: SaveKernel: the %v kernel runs on an RCM-reordered matrix; save a kernel built by Matrix.Kernel", k.Format())
	}
	return bk.b.Sym.WriteFile(path)
}

// LoadCSXSymKernel loads a kernel persisted with SaveKernel. The thread
// count is fixed by the partition stored in the file (CSX-Sym is encoded
// per thread). The reduction state is rebuilt on load.
func LoadCSXSymKernel(path string) (Kernel, error) {
	sm, err := csx.ReadSymMatrixFile(path)
	if err != nil {
		return nil, err
	}
	pool := parallel.NewPool(len(sm.Blobs))
	return &boundKernel{b: format.BindSym(sm, pool), pool: pool, n: sm.N}, nil
}
