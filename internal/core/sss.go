// Package core implements the paper's primary contribution: the symmetric
// sparse matrix-vector multiplication kernel over the SSS (Symmetric Sparse
// Skyline) format, multithreaded with per-thread local output vectors, and
// the three local-vector reduction strategies the paper compares —
// naive full-vector reduction, effective ranges (Batista et al.), and the
// proposed local-vectors indexing scheme.
package core

import (
	"fmt"

	"repro/internal/matrix"
)

// SymKind labels the symmetry class an SSS matrix represents. All three
// classes share the same index structure (dense diagonal + strict lower
// triangle in CSR); they differ only in how the upper triangle is implied.
type SymKind int

const (
	// Sym is the paper's case: A = Aᵀ, the transpose contribution reuses the
	// stored value unchanged.
	Sym SymKind = iota
	// Skew is A = -Aᵀ (PARS3): same storage as Sym, the transpose
	// contribution enters with flipped sign, and the diagonal is identically
	// zero — DValues is nil, the format does not store it.
	Skew
	// Structural is a structurally-symmetric-only matrix (Batista et al.):
	// the sparsity pattern is symmetric but values are not, so a second value
	// array UVal carries the upper-triangle values at the same index slots.
	Structural
)

// String implements fmt.Stringer.
func (k SymKind) String() string {
	switch k {
	case Sym:
		return "symmetric"
	case Skew:
		return "skew-symmetric"
	case Structural:
		return "structurally-symmetric"
	default:
		return fmt.Sprintf("SymKind(%d)", int(k))
	}
}

// SSS is a symmetric sparse matrix in Sparse Symmetric Skyline format: the
// main diagonal lives in DValues and the strict lower triangle in CSR layout
// (RowPtr/ColIdx/Val). Only the lower half is stored; the upper half is
// implied by the symmetry class Kind. For Skew matrices DValues is nil (the
// diagonal is identically zero); for Structural matrices UVal[j] holds the
// upper-triangle value A[c][r] mirroring the lower slot j at (r, c).
type SSS struct {
	N       int
	Kind    SymKind
	DValues []float64
	RowPtr  []int32
	ColIdx  []int32
	Val     []float64
	UVal    []float64 // Structural only; nil otherwise
}

// FromCOO builds an SSS matrix from symmetric lower-triangular COO storage.
// Missing diagonal entries are stored as explicit zeros in DValues, as the
// format requires a dense diagonal array. A COO with the Skew flag builds a
// Kind=Skew SSS: its diagonal must be absent or explicitly zero, and DValues
// stays nil — the skew-symmetric format does not store the diagonal at all.
func FromCOO(m *matrix.COO) (*SSS, error) {
	if !m.Symmetric {
		return nil, fmt.Errorf("core: SSS requires symmetric lower-triangular storage")
	}
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("core: SSS requires a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	src := m
	if !m.IsNormalized() {
		src = m.Clone().Normalize()
	}
	n := src.Rows
	s := &SSS{
		N:      n,
		RowPtr: make([]int32, n+1),
	}
	if m.Skew {
		s.Kind = Skew
	} else {
		s.DValues = make([]float64, n)
	}
	lower := 0
	for k := range src.Val {
		if src.RowIdx[k] == src.ColIdx[k] {
			if s.Kind == Skew {
				if src.Val[k] != 0 {
					return nil, fmt.Errorf("core: skew-symmetric matrix has nonzero diagonal entry (%d,%d)=%g",
						src.RowIdx[k], src.ColIdx[k], src.Val[k])
				}
				continue
			}
			s.DValues[src.RowIdx[k]] = src.Val[k]
		} else {
			lower++
		}
	}
	s.ColIdx = make([]int32, 0, lower)
	s.Val = make([]float64, 0, lower)
	for k := range src.Val {
		r, c := src.RowIdx[k], src.ColIdx[k]
		if r == c {
			continue
		}
		s.RowPtr[r+1]++
		s.ColIdx = append(s.ColIdx, c)
		s.Val = append(s.Val, src.Val[k])
	}
	for r := 0; r < n; r++ {
		s.RowPtr[r+1] += s.RowPtr[r]
	}
	return s, nil
}

// FromCOOStructural builds a Kind=Structural SSS from a general COO whose
// sparsity pattern is symmetric but whose values need not be: the strict
// lower triangle lands in Val, the diagonal in DValues, and each upper entry
// (c, r) with c < r lands in UVal at the slot of its lower mirror (r, c) —
// one index structure, two value arrays.
func FromCOOStructural(m *matrix.COO) (*SSS, error) {
	if m.Symmetric {
		return nil, fmt.Errorf("core: FromCOOStructural takes a general COO; use FromCOO for symmetric storage")
	}
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("core: SSS requires a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	src := m
	if !m.IsNormalized() {
		src = m.Clone().Normalize()
	}
	n := src.Rows
	s := &SSS{
		N:       n,
		Kind:    Structural,
		DValues: make([]float64, n),
		RowPtr:  make([]int32, n+1),
	}
	lower := 0
	for k := range src.Val {
		r, c := src.RowIdx[k], src.ColIdx[k]
		switch {
		case r == c:
			s.DValues[r] = src.Val[k]
		case r > c:
			lower++
		}
	}
	s.ColIdx = make([]int32, 0, lower)
	s.Val = make([]float64, 0, lower)
	for k := range src.Val {
		r, c := src.RowIdx[k], src.ColIdx[k]
		if r <= c {
			continue
		}
		s.RowPtr[r+1]++
		s.ColIdx = append(s.ColIdx, c)
		s.Val = append(s.Val, src.Val[k])
	}
	for r := 0; r < n; r++ {
		s.RowPtr[r+1] += s.RowPtr[r]
	}
	// Second pass: place every strictly upper entry at its mirror's slot.
	s.UVal = make([]float64, lower)
	filled := 0
	for k := range src.Val {
		r, c := src.RowIdx[k], src.ColIdx[k]
		if r >= c {
			continue
		}
		j, ok := s.findSlot(int32(c), int32(r))
		if !ok {
			return nil, fmt.Errorf("core: pattern not structurally symmetric: entry (%d,%d) has no mirror", r, c)
		}
		s.UVal[j] = src.Val[k]
		filled++
	}
	if filled != lower {
		return nil, fmt.Errorf("core: pattern not structurally symmetric: %d lower entries lack upper mirrors", lower-filled)
	}
	return s, nil
}

// invalidSSS is the error of Validate: what is wrong and, when the fault
// belongs to a row, which one (Row is -1 for a fault in the array lengths).
type invalidSSS struct {
	Row int
	Msg string
}

func (e *invalidSSS) Error() string {
	if e.Row < 0 {
		return "core: invalid SSS: " + e.Msg
	}
	return fmt.Sprintf("core: invalid SSS: row %d: %s", e.Row, e.Msg)
}

// Validate checks the structure every kernel relies on and nothing checks
// again: the array lengths fit N and Kind, RowPtr starts at zero, never
// decreases and ends at len(ColIdx), and within a row the columns ascend
// strictly and stay below the diagonal. The error names the first offending
// row. Sorted columns are what makes the effective-range boundary a point in
// the row (an unsorted row would send a write meant for the local vector into
// another thread's range of y); the pointer bounds are what the multiply
// bodies' per-row check can then never fail. One pass over the index arrays,
// run once per kernel build by NewKernel and csx.NewSym.
func (s *SSS) Validate() error {
	n := s.N
	bad := func(row int, format string, args ...any) error {
		return &invalidSSS{Row: row, Msg: fmt.Sprintf(format, args...)}
	}
	if n < 0 || len(s.RowPtr) != n+1 {
		return bad(-1, "N = %d with %d row pointers, want N+1", n, len(s.RowPtr))
	}
	if len(s.Val) != len(s.ColIdx) {
		return bad(-1, "%d values for %d column indices", len(s.Val), len(s.ColIdx))
	}
	wantD, wantU := n, 0
	switch s.Kind {
	case Sym:
	case Skew:
		wantD = 0
	case Structural:
		wantU = len(s.Val)
	default:
		return bad(-1, "unknown symmetry class %s", s.Kind)
	}
	if len(s.DValues) != wantD || len(s.UVal) != wantU {
		return bad(-1, "a %s matrix with %d diagonal and %d upper values, want %d and %d",
			s.Kind, len(s.DValues), len(s.UVal), wantD, wantU)
	}
	if s.RowPtr[0] != 0 {
		return bad(0, "RowPtr[0] = %d, want 0", s.RowPtr[0])
	}
	rowPtr, colIdx := s.RowPtr, s.ColIdx
	j := 0
	for r := 0; r < n; r++ {
		hi := int(rowPtr[r+1])
		if hi < j || hi > len(colIdx) {
			return bad(r, "row pointers [%d, %d) with %d stored elements", j, hi, len(colIdx))
		}
		// Ascending from above -1 and ending below r puts every column in [0, r).
		prev := int32(-1)
		for ; j < hi; j++ {
			c := colIdx[j]
			if c <= prev {
				return bad(r, "column %d after %d: want strictly ascending columns in [0, %d)", c, prev, r)
			}
			prev = c
		}
		if int(prev) >= r {
			return bad(r, "column %d: want strictly ascending columns in [0, %d)", prev, r)
		}
	}
	if int(rowPtr[n]) != len(colIdx) {
		return bad(n-1, "RowPtr[N] = %d with %d stored elements", rowPtr[n], len(colIdx))
	}
	return nil
}

// findSlot binary-searches row r's slot for column c in the lower CSR.
func (s *SSS) findSlot(r, c int32) (int32, bool) {
	lo, hi := s.RowPtr[r], s.RowPtr[r+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.ColIdx[mid] < c:
			lo = mid + 1
		case s.ColIdx[mid] > c:
			hi = mid
		default:
			return mid, true
		}
	}
	return 0, false
}

// NNZLower reports the stored strict-lower-triangle nonzeros.
func (s *SSS) NNZLower() int { return len(s.Val) }

// LogicalNNZ reports the nonzeros of the full operator: twice the stored
// lower triangle plus every stored diagonal slot (the format stores the
// diagonal densely; for Skew the diagonal is identically zero and absent).
func (s *SSS) LogicalNNZ() int { return 2*len(s.Val) + len(s.DValues) }

// Bytes reports the in-memory size: 8·|DValues| + 12·NNZ_lower + 8·|UVal| +
// 4·(N+1). For Kind=Sym this reduces to the paper's Eq. (2), 6·(NNZ+N)+4,
// for NNZ ≫ N; Skew drops the 8·N diagonal term, Structural adds an 8-byte
// upper value per stored lower slot.
func (s *SSS) Bytes() int64 {
	return int64(8*len(s.DValues)) + int64(12*len(s.Val)) +
		int64(8*len(s.UVal)) + int64(4*(s.N+1))
}

// MulVec computes y = A·x with the serial symmetric kernel (Alg. 2 in the
// paper): each stored lower element (r,c) contributes to both y[r] and y[c].
// The transpose contribution follows the symmetry class: unchanged for Sym,
// sign-flipped for Skew, taken from UVal for Structural.
func (s *SSS) MulVec(x, y []float64) {
	if len(x) != s.N || len(y) != s.N {
		panic(fmt.Sprintf("core: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			s.N, s.N, len(x), len(y)))
	}
	if s.Kind == Skew {
		for r := range y {
			y[r] = 0
		}
	} else {
		for r := range y {
			y[r] = s.DValues[r] * x[r]
		}
	}
	switch s.Kind {
	case Skew:
		for r := 0; r < s.N; r++ {
			xr := x[r]
			acc := 0.0
			for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
				c := s.ColIdx[j]
				v := s.Val[j]
				acc += v * x[c]
				y[c] -= v * xr
			}
			y[r] += acc
		}
	case Structural:
		for r := 0; r < s.N; r++ {
			xr := x[r]
			acc := 0.0
			for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
				c := s.ColIdx[j]
				acc += s.Val[j] * x[c]
				y[c] += s.UVal[j] * xr
			}
			y[r] += acc
		}
	default:
		for r := 0; r < s.N; r++ {
			xr := x[r]
			acc := 0.0
			for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
				c := s.ColIdx[j]
				v := s.Val[j]
				acc += v * x[c]
				y[c] += v * xr
			}
			y[r] += acc
		}
	}
}

// ToCOO converts back to COO (for verification and round-trip tests):
// symmetric lower-triangular for Sym/Skew, expanded general for Structural
// (a structurally-symmetric operator has no triangular COO form). Zero
// diagonal slots are emitted only if emitZeroDiag is set; Skew never emits
// diagonal slots — the format has none.
func (s *SSS) ToCOO(emitZeroDiag bool) *matrix.COO {
	if s.Kind == Structural {
		m := matrix.NewCOO(s.N, s.N, 2*len(s.Val)+s.N)
		for r := 0; r < s.N; r++ {
			for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
				c := int(s.ColIdx[j])
				m.Add(r, c, s.Val[j])
				m.Add(c, r, s.UVal[j])
			}
			if s.DValues[r] != 0 || emitZeroDiag {
				m.Add(r, r, s.DValues[r])
			}
		}
		return m.Normalize()
	}
	m := matrix.NewCOO(s.N, s.N, len(s.Val)+s.N)
	m.Symmetric = true
	m.Skew = s.Kind == Skew
	for r := 0; r < s.N; r++ {
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			m.Add(r, int(s.ColIdx[j]), s.Val[j])
		}
		if s.Kind != Skew && (s.DValues[r] != 0 || emitZeroDiag) {
			m.Add(r, r, s.DValues[r])
		}
	}
	return m.Normalize()
}
