// Package matrix provides the shared sparse-matrix substrate: a coordinate
// (COO/triplet) container, Matrix Market I/O, and structural statistics
// (bandwidth, density, symmetry checks) used by every storage format in the
// library.
//
// Conventions, following the paper:
//   - indices are 0-based int32 (4-byte indexing information),
//   - values are float64 (8-byte double precision),
//   - symmetric matrices are carried in *lower-triangular* form: only entries
//     with col <= row are stored and the full operator is implied.
package matrix

import (
	"fmt"
	"math/bits"
)

// COO is a sparse matrix in coordinate (triplet) form. Entries may be in any
// order and may contain duplicates until Normalize is called. COO is the
// interchange representation every compressed format is built from.
type COO struct {
	Rows, Cols int
	// Symmetric marks the matrix as symmetric with only the lower triangle
	// (col <= row) stored. Structural formats (SSS, CSX-Sym) require it.
	Symmetric bool
	// Skew refines Symmetric: the stored lower triangle implies the upper
	// triangle with flipped sign (A = -Aᵀ), and every diagonal entry is
	// identically zero. Skew is only meaningful together with Symmetric —
	// the storage convention (lower triangle, col <= row) is shared.
	Skew bool

	RowIdx []int32
	ColIdx []int32
	Val    []float64
}

// NewCOO returns an empty COO of the given shape with capacity for nnzHint
// entries.
func NewCOO(rows, cols, nnzHint int) *COO {
	return &COO{
		Rows:   rows,
		Cols:   cols,
		RowIdx: make([]int32, 0, nnzHint),
		ColIdx: make([]int32, 0, nnzHint),
		Val:    make([]float64, 0, nnzHint),
	}
}

// NNZ reports the number of stored entries. For a Symmetric COO this counts
// stored (lower-triangular) entries, not the logical nonzeros of the full
// operator; see LogicalNNZ.
func (m *COO) NNZ() int { return len(m.Val) }

// LogicalNNZ reports the number of nonzeros of the represented operator:
// equal to NNZ for general matrices, and 2*NNZ - #diagonal for symmetric
// lower-triangular storage.
func (m *COO) LogicalNNZ() int {
	if !m.Symmetric {
		return m.NNZ()
	}
	diag := 0
	for k := range m.Val {
		if m.RowIdx[k] == m.ColIdx[k] {
			diag++
		}
	}
	return 2*m.NNZ() - diag
}

// Add appends one entry. It panics on out-of-range coordinates and, for
// symmetric matrices, on upper-triangular coordinates.
func (m *COO) Add(r, c int, v float64) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("matrix: entry (%d,%d) outside %dx%d", r, c, m.Rows, m.Cols))
	}
	if m.Symmetric && c > r {
		panic(fmt.Sprintf("matrix: symmetric COO stores the lower triangle only, got (%d,%d)", r, c))
	}
	m.RowIdx = append(m.RowIdx, int32(r))
	m.ColIdx = append(m.ColIdx, int32(c))
	m.Val = append(m.Val, v)
}

// Clone returns a deep copy.
func (m *COO) Clone() *COO {
	c := &COO{
		Rows: m.Rows, Cols: m.Cols, Symmetric: m.Symmetric, Skew: m.Skew,
		RowIdx: append([]int32(nil), m.RowIdx...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// Normalize sorts the entries into row-major order, in place, and sums
// duplicates in the order they appear in the input: the sort is stable, so
// entries sharing a coordinate are added left to right. Explicit zeros
// produced by cancellation are kept; structural zeros are the caller's
// concern. An already normalized matrix is left untouched and nothing is
// allocated. Normalize returns the receiver for chaining.
//
// The sort is an LSD radix sort on the packed key (row, col), linear in the
// number of entries. Rows and columns are packed relative to their smallest
// value into as few bits as their ranges need, so the scratch — two key arrays,
// one value array and one digit's counters — is O(nnz) whatever Rows and Cols
// are, and coordinates outside the declared shape still sort as themselves.
func (m *COO) Normalize() *COO {
	if m.IsNormalized() {
		return m
	}
	n := m.NNZ()
	rlo, rhi, clo, chi := m.RowIdx[0], m.RowIdx[0], m.ColIdx[0], m.ColIdx[0]
	for k := 1; k < n; k++ {
		rlo, rhi = min(rlo, m.RowIdx[k]), max(rhi, m.RowIdx[k])
		clo, chi = min(clo, m.ColIdx[k]), max(chi, m.ColIdx[k])
	}
	cbits := bits.Len64(uint64(int64(chi) - int64(clo)))
	keyBits := cbits + bits.Len64(uint64(int64(rhi)-int64(rlo)))
	keys, vals := make([]uint64, n), m.Val
	for k := range keys {
		keys[k] = uint64(int64(m.RowIdx[k])-int64(rlo))<<cbits | uint64(int64(m.ColIdx[k])-int64(clo))
	}

	const digit = 11 // bits per pass: 2048 counters stay in L1
	var count [1 << digit]int
	keys2, vals2 := make([]uint64, n), make([]float64, n)
	for shift := 0; shift < keyBits; shift += digit {
		clear(count[:])
		for _, k := range keys {
			count[k>>shift&(1<<digit-1)]++
		}
		if count[keys[0]>>shift&(1<<digit-1)] == n {
			continue // every key has the same digit here
		}
		at := 0
		for d, c := range count {
			count[d], at = at, at+c
		}
		for i, k := range keys {
			d := k >> shift & (1<<digit - 1)
			keys2[count[d]], vals2[count[d]] = k, vals[i]
			count[d]++
		}
		keys, keys2, vals, vals2 = keys2, keys, vals2, vals
	}

	// Unpack in place, summing runs of one key. vals may be m.Val itself:
	// the write index never passes the read index.
	w := 0
	for i, k := range keys {
		if w > 0 && k == keys[i-1] {
			m.Val[w-1] += vals[i]
			continue
		}
		m.RowIdx[w] = int32(int64(k>>cbits) + int64(rlo))
		m.ColIdx[w] = int32(int64(k&(1<<cbits-1)) + int64(clo))
		m.Val[w] = vals[i]
		w++
	}
	m.RowIdx, m.ColIdx, m.Val = m.RowIdx[:w], m.ColIdx[:w], m.Val[:w]
	return m
}

// IsNormalized reports whether entries are strictly row-major sorted with no
// duplicates.
func (m *COO) IsNormalized() bool {
	for k := 1; k < m.NNZ(); k++ {
		if m.RowIdx[k] < m.RowIdx[k-1] {
			return false
		}
		if m.RowIdx[k] == m.RowIdx[k-1] && m.ColIdx[k] <= m.ColIdx[k-1] {
			return false
		}
	}
	return true
}

// ToLowerSymmetric converts a general COO that is numerically symmetric into
// lower-triangular symmetric storage, dropping the upper triangle. It returns
// an error if the matrix is not square.
func (m *COO) ToLowerSymmetric() (*COO, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("matrix: ToLowerSymmetric on %dx%d non-square matrix", m.Rows, m.Cols)
	}
	out := NewCOO(m.Rows, m.Cols, m.NNZ()/2+m.Rows)
	out.Symmetric = true
	for k := range m.Val {
		if m.ColIdx[k] <= m.RowIdx[k] {
			out.Add(int(m.RowIdx[k]), int(m.ColIdx[k]), m.Val[k])
		}
	}
	out.Normalize()
	return out, nil
}

// ToGeneral expands symmetric lower-triangular storage into a full general
// COO (both triangles stored explicitly). For non-symmetric input it returns
// a normalized clone.
func (m *COO) ToGeneral() *COO {
	out := NewCOO(m.Rows, m.Cols, m.LogicalNNZ())
	for k := range m.Val {
		r, c := int(m.RowIdx[k]), int(m.ColIdx[k])
		out.Add(r, c, m.Val[k])
		if m.Symmetric && r != c {
			// mirrored entry: note out is not Symmetric, so Add allows it
			v := m.Val[k]
			if m.Skew {
				v = -v
			}
			out.Add(c, r, v)
		}
	}
	out.Symmetric = false
	return out.Normalize()
}

// MulVec computes y = A·x with the trivial triplet kernel. It is the
// reference implementation every optimized format is verified against.
// x and y must have length Cols and Rows respectively; y is overwritten.
func (m *COO) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("matrix: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	for i := range y {
		y[i] = 0
	}
	for k := range m.Val {
		r, c, v := m.RowIdx[k], m.ColIdx[k], m.Val[k]
		y[r] += v * x[c]
		if m.Symmetric && r != c {
			if m.Skew {
				y[c] -= v * x[r]
			} else {
				y[c] += v * x[r]
			}
		}
	}
}

// Permute returns P·A·Pᵀ for the permutation perm, where perm[i] is the new
// index of old row/column i. The receiver must be square. Symmetric matrices
// stay lower-triangular: a permuted entry landing in the upper triangle is
// mirrored back.
func (m *COO) Permute(perm []int32) (*COO, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("matrix: Permute on %dx%d non-square matrix", m.Rows, m.Cols)
	}
	if len(perm) != m.Rows {
		return nil, fmt.Errorf("matrix: Permute: len(perm)=%d, want %d", len(perm), m.Rows)
	}
	for i, p := range perm {
		if p < 0 || int(p) >= m.Rows {
			return nil, fmt.Errorf("matrix: Permute: perm[%d]=%d outside 0..%d", i, p, m.Rows-1)
		}
	}
	out := &COO{
		Rows: m.Rows, Cols: m.Cols, Symmetric: m.Symmetric, Skew: m.Skew,
		RowIdx: make([]int32, m.NNZ()),
		ColIdx: make([]int32, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	for k, v := range m.Val {
		r := perm[m.RowIdx[k]]
		c := perm[m.ColIdx[k]]
		if m.Symmetric && c > r {
			r, c = c, r
			if m.Skew {
				// The stored entry crossed the diagonal: what we store at
				// (r,c) is now the implied mirror, whose sign is flipped.
				v = -v
			}
		}
		out.RowIdx[k], out.ColIdx[k], out.Val[k] = r, c, v
	}
	return out.Normalize(), nil
}

// Validate checks structural invariants and returns a descriptive error on
// the first violation. It is used by tests and by the Matrix Market reader.
func (m *COO) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("matrix: negative shape %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowIdx) != len(m.Val) || len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("matrix: ragged triplet arrays: %d/%d/%d",
			len(m.RowIdx), len(m.ColIdx), len(m.Val))
	}
	if m.Symmetric && m.Rows != m.Cols {
		return fmt.Errorf("matrix: symmetric flag on %dx%d non-square matrix", m.Rows, m.Cols)
	}
	if m.Skew && !m.Symmetric {
		return fmt.Errorf("matrix: skew flag without symmetric lower-triangular storage")
	}
	for k := range m.Val {
		r, c := m.RowIdx[k], m.ColIdx[k]
		if r < 0 || int(r) >= m.Rows || c < 0 || int(c) >= m.Cols {
			return fmt.Errorf("matrix: entry %d at (%d,%d) outside %dx%d", k, r, c, m.Rows, m.Cols)
		}
		if m.Symmetric && c > r {
			return fmt.Errorf("matrix: entry %d at (%d,%d) in upper triangle of symmetric matrix", k, r, c)
		}
		if m.Skew && r == c && m.Val[k] != 0 {
			return fmt.Errorf("matrix: entry %d: nonzero diagonal value %g in skew-symmetric matrix", k, m.Val[k])
		}
	}
	return nil
}

// PatternSymmetric reports whether a general (non-Symmetric) square COO has a
// structurally symmetric sparsity pattern: entry (r,c) present iff (c,r) is.
// Values are ignored — this is the admission test for the
// structurally-symmetric SSS kernel, which shares one index structure between
// the two triangles while keeping separate value arrays. The receiver must be
// normalized.
func (m *COO) PatternSymmetric() bool {
	if m.Symmetric || m.Rows != m.Cols || !m.IsNormalized() {
		return m.Symmetric
	}
	// Count entries per triangle first: a cheap reject before the search.
	lower, upper := 0, 0
	for k := range m.Val {
		switch {
		case m.RowIdx[k] > m.ColIdx[k]:
			lower++
		case m.RowIdx[k] < m.ColIdx[k]:
			upper++
		}
	}
	if lower != upper {
		return false
	}
	// Build row pointers once, then binary-search the mirror of every strictly
	// lower entry.
	rowPtr := make([]int32, m.Rows+1)
	for k := range m.Val {
		rowPtr[m.RowIdx[k]+1]++
	}
	for i := 0; i < m.Rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	for k := range m.Val {
		r, c := m.RowIdx[k], m.ColIdx[k]
		if r <= c {
			continue
		}
		lo, hi := rowPtr[c], rowPtr[c+1]
		found := false
		for lo < hi {
			mid := (lo + hi) / 2
			switch {
			case m.ColIdx[mid] < r:
				lo = mid + 1
			case m.ColIdx[mid] > r:
				hi = mid
			default:
				found = true
				lo = hi
			}
		}
		if !found {
			return false
		}
	}
	return true
}
