package core

//go:generate go run ./gen

// The multiply bodies — naive, effective-ranges/indexed and colored, for the
// three symmetry classes and every SpMM lane width — are one loop over a
// lower row, instantiated 18 times by gen/main.go into lowerrow_gen.go (the
// holes and the loop's shape are described there and in DESIGN.md §17).
// What stays hand-written is what is not that loop: the reductions
// (localvec.go, mulmat.go) and the diagonal-init and dot sweeps (colored.go).

// rowPtrOverrun is what a generated body panics with when a row's end pointer
// lies past the column array — the check that lets the inner loops index
// ColIdx and Val unchecked. NewKernel runs Validate first, so no matrix that
// reaches a kernel can fail it.
func rowPtrOverrun(r int) error {
	return &invalidSSS{Row: r, Msg: "RowPtr[r+1] runs past ColIdx"}
}

// kindUval resolves the kind value policy for a non-Sym matrix: the array the
// transpose write reads and the sign it enters with.
//
//	Skew:       uval = Val,  sign = -1  (y[c] -= v·x[r]; no diagonal)
//	Structural: uval = UVal, sign = +1  (y[c] += A[c][r]·x[r])
//
// Skew therefore streams exactly the same bytes as the symmetric kernel —
// the sign flip is free — while Structural pays one extra 8-byte read per
// stored element, which Traffic() and the perfmodel account for. Sym matrices
// run the sym cells: the paper's measured kernel carries no multiply by one.
func (s *SSS) kindUval() (uval []float64, sign float64) {
	if s.Kind == Skew {
		return s.Val, -1
	}
	return s.UVal, 1
}
