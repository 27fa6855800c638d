package fuzzcheck

import (
	"fmt"
	"math"

	"repro/internal/matrix"
)

// Reference computes y = A·x with a trusted serial dense sweep, plus the
// per-element magnitude sum scale_i = Σ_j |A_ij|·|x_j| over the full
// operator (symmetric mirrors +v, skew-symmetric mirrors −v, general input
// is taken as stored). The dense expansion deliberately shares no code with
// any kernel under test: duplicates are summed into the dense array first
// (matching the Normalize step every format builder runs), then a plain
// row-major dense multiply produces the reference.
//
// scale is the yardstick for comparing kernels: summing n floating-point
// terms in a different order perturbs the result by at most O(n·ε)·Σ|terms|,
// so |y_i − ref_i| ≤ tol·scale_i with tol = 1e-12 passes every legitimate
// reordering (including denormal and 1e150-magnitude values, where any
// absolute tolerance is meaningless) while catching real indexing bugs,
// which move whole entries rather than low-order bits. A zero scale_i means
// row i has no contributions at all, so y_i must be exactly ±0.
func Reference(m *matrix.COO, x []float64) (y, scale []float64) {
	return ReferenceMat(m, x, 1)
}

// ReferenceMat is the multi-RHS analog of Reference: Y = A·X for nv
// interleaved right-hand sides (x[i*nv+v] is element i of vector v), again
// via a trusted serial dense sweep sharing no code with the kernels. The
// returned y and scale use the same interleaved layout, so Compare applies
// unchanged.
func ReferenceMat(m *matrix.COO, x []float64, nv int) (y, scale []float64) {
	n := m.Rows
	dense := make([]float64, n*n)
	for k := range m.Val {
		r, c, v := int(m.RowIdx[k]), int(m.ColIdx[k]), m.Val[k]
		dense[r*n+c] += v
		if m.Symmetric && r != c {
			if m.Skew {
				dense[c*n+r] -= v
			} else {
				dense[c*n+r] += v
			}
		}
	}
	y = make([]float64, n*nv)
	scale = make([]float64, n*nv)
	for r := 0; r < n; r++ {
		row := dense[r*n : (r+1)*n]
		for v := 0; v < nv; v++ {
			var sum, mag float64
			for c, a := range row {
				if a == 0 {
					continue
				}
				sum += a * x[c*nv+v]
				mag += math.Abs(a) * math.Abs(x[c*nv+v])
			}
			y[r*nv+v] = sum
			scale[r*nv+v] = mag
		}
	}
	return y, scale
}

// Compare checks got against the reference within tol·scale per element and
// reports the first violation. Non-finite got values fail unless the
// reference produced the same non-finite value (a matrix holding Inf is
// allowed to return Inf, but a kernel must not invent one).
func Compare(got, ref, scale []float64, tol float64) error {
	if len(got) != len(ref) {
		return fmt.Errorf("length %d != reference %d", len(got), len(ref))
	}
	for i := range got {
		d := math.Abs(got[i] - ref[i])
		if d <= tol*scale[i] {
			continue
		}
		if math.IsNaN(ref[i]) && math.IsNaN(got[i]) {
			continue
		}
		if math.IsInf(ref[i], 1) && math.IsInf(got[i], 1) {
			continue
		}
		if math.IsInf(ref[i], -1) && math.IsInf(got[i], -1) {
			continue
		}
		return fmt.Errorf("y[%d] = %g, reference %g (|Δ| = %g > %g·%g)",
			i, got[i], ref[i], d, tol, scale[i])
	}
	return nil
}

// TestX returns the deterministic probe vector for an n-dimensional check:
// mostly unit-scale noise, with exact zeros, an exactly-representable large
// value, and a denormal mixed in so kernels meet the full dynamic range on
// every case.
func TestX(n int, seed int64) []float64 {
	x := make([]float64, n)
	s := uint64(seed)*2862933555777941757 + 3037000493
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for i := range x {
		switch i % 7 {
		case 3:
			x[i] = 0
		case 5:
			x[i] = 1024 // exactly representable, no rounding of its own
		case 6:
			x[i] = 5e-310
		default:
			x[i] = float64(int64(next()%2048)-1024) / 1024
		}
	}
	return x
}
