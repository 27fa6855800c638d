// Package fuzzcheck is the library's differential property-testing
// subsystem: it generates adversarial symmetric matrices — the degenerate
// shapes a production service sees long before it sees a well-behaved PDE
// discretization — and cross-checks every storage format, reduction method,
// and thread count against a trusted serial dense reference. The package
// also hosts the native Go fuzz targets for the two untrusted-bytes parsers
// (Matrix Market and the CSX-Sym blob deserializer) with their regression
// corpus under testdata/fuzz/.
package fuzzcheck

import (
	"math"
	"math/rand"

	"repro/internal/matrix"
)

// Case is one adversarial matrix with a descriptive name.
type Case struct {
	Name string
	M    *matrix.COO // symmetric, lower triangle, possibly with duplicates
}

// AdversarialSuite returns the deterministic generator taxonomy. Every shape
// here exists because some kernel layer is sensitive to it:
//
//   - empty / 1×1 matrices: loop bounds and partition construction,
//   - N smaller than any realistic thread count: empty chunks, zero-length
//     local vectors, reduction phases with nothing to reduce,
//   - empty rows (including empty diagonal): skipped rows in SSS, zero-row
//     chunks in ByNNZ,
//   - a single dense row (= dense column, by symmetry): one thread owns
//     nearly all nonzeros, local vectors cover the whole prefix,
//   - extreme bandwidth: entries at (r, 0) stress the reduction index,
//   - duplicate COO entries, partially cancelling: Normalize's summing and
//     the builders' tolerance of them,
//   - denormal and huge values: tolerance modelling and non-finite guards,
//   - explicit zero values: structural nonzeros the formats must carry,
//   - banded runs and dense blocks: CSX's Horizontal/Diagonal/Block pattern
//     detection on inputs where units touch partition boundaries.
func AdversarialSuite() []Case {
	var cases []Case
	add := func(name string, m *matrix.COO) {
		cases = append(cases, Case{Name: name, M: m})
	}

	add("empty-0x0", sym(0, 0))

	m := sym(1, 1)
	m.Add(0, 0, 3)
	add("single-1x1", m)

	add("single-1x1-no-entries", sym(1, 0))

	m = sym(64, 64)
	for r := 0; r < 64; r++ {
		m.Add(r, r, float64(r+1))
	}
	add("diag-only-64", m)

	// Rows 10–20 and 50–96 carry nothing at all, not even a diagonal.
	m = sym(97, 200)
	rng := rand.New(rand.NewSource(101))
	for r := 0; r < 97; r++ {
		if (r >= 10 && r <= 20) || r >= 50 {
			continue
		}
		m.Add(r, r, 4)
		for k := 0; k < 2 && r > 0; k++ {
			m.Add(r, rng.Intn(r), rng.NormFloat64())
		}
	}
	add("empty-rows-97", m)

	// Row 100 is dense in columns 0..99; by symmetry that is also a dense
	// column 100 in the implicit upper half.
	m = sym(128, 300)
	for r := 0; r < 128; r++ {
		m.Add(r, r, 130)
	}
	for c := 0; c < 100; c++ {
		m.Add(100, c, 1)
	}
	add("dense-row-128", m)

	// Tiny matrices, each smaller than the largest thread count the
	// differential suite runs with.
	for _, n := range []int{2, 3, 5, 7} {
		rng := rand.New(rand.NewSource(int64(200 + n)))
		m = sym(n, n*3)
		for r := 0; r < n; r++ {
			m.Add(r, r, float64(n)+1)
			for c := 0; c < r; c++ {
				if rng.Intn(2) == 0 {
					m.Add(r, c, rng.NormFloat64())
				}
			}
		}
		add("tiny-"+itoa(n), m)
	}

	// Duplicate entries: every off-diagonal added twice with values that
	// partially cancel, plus a triple-added diagonal.
	m = sym(50, 300)
	rng = rand.New(rand.NewSource(303))
	for r := 0; r < 50; r++ {
		m.Add(r, r, 10)
		m.Add(r, r, -2)
		m.Add(r, r, 0.5)
		for k := 0; k < 2 && r > 0; k++ {
			c := rng.Intn(r)
			v := rng.NormFloat64()
			m.Add(r, c, v)
			m.Add(r, c, -v/2)
		}
	}
	add("dup-entries-50", m)

	// Extreme bandwidth: a full first column (every row reaches back to
	// column 0) and the far corner.
	m = sym(200, 500)
	for r := 0; r < 200; r++ {
		m.Add(r, r, 300)
		if r > 0 {
			m.Add(r, 0, 1)
		}
	}
	m.Add(199, 0, 0.25) // duplicate of the corner entry
	add("extreme-bandwidth-200", m)

	// Denormal values: products and sums hover around 1e-320, where float64
	// has only a few bits of precision left.
	m = sym(64, 300)
	rng = rand.New(rand.NewSource(404))
	den := []float64{5e-324, 1e-310, 3e-308, -2e-320}
	for r := 0; r < 64; r++ {
		m.Add(r, r, den[r%len(den)])
		for k := 0; k < 2 && r > 0; k++ {
			m.Add(r, rng.Intn(r), den[rng.Intn(len(den))])
		}
	}
	add("denormal-64", m)

	// Huge values mixed with tiny ones: exercises the Σ|v·x| tolerance
	// scaling (absolute 1e-12 would be absurd at 1e150).
	m = sym(64, 300)
	rng = rand.New(rand.NewSource(505))
	big := []float64{1e150, -1e150, 1e140, 1e-150}
	for r := 0; r < 64; r++ {
		m.Add(r, r, 1e150)
		for k := 0; k < 2 && r > 0; k++ {
			m.Add(r, rng.Intn(r), big[rng.Intn(len(big))])
		}
	}
	add("huge-64", m)

	// Explicit zero values: structurally present, numerically nothing.
	m = sym(40, 160)
	rng = rand.New(rand.NewSource(606))
	for r := 0; r < 40; r++ {
		m.Add(r, r, 2)
		if r > 0 {
			m.Add(r, rng.Intn(r), 0)
		}
	}
	add("zero-values-40", m)

	// Banded with long horizontal runs: CSX detects Horizontal/Delta units
	// that end exactly at partition boundaries for some thread counts.
	m = sym(160, 160*10)
	rng = rand.New(rand.NewSource(707))
	for r := 0; r < 160; r++ {
		m.Add(r, r, 20)
		if r >= 8 {
			for c := r - 8; c < r; c++ {
				m.Add(r, c, 1+rng.Float64())
			}
		}
	}
	add("banded-runs-160", m)

	// Dense 3×3 blocks scattered below the diagonal (Block3 units).
	m = sym(96, 96*12)
	rng = rand.New(rand.NewSource(808))
	for r := 0; r < 96; r++ {
		m.Add(r, r, 40)
	}
	for b := 0; b < 12; b++ {
		r0 := 6 + rng.Intn(88)
		c0 := rng.Intn(r0 - 3)
		for dr := 0; dr < 3; dr++ {
			for dc := 0; dc < 3; dc++ {
				m.Add(r0+dr, c0+dc, rng.NormFloat64())
			}
		}
	}
	add("blocked-96", m)

	// The last row holds every off-diagonal entry; every other row is empty
	// (no diagonal either). With p > 4 threads most chunks are empty and the
	// last chunk owns everything.
	m = sym(33, 40)
	for c := 0; c < 32; c++ {
		m.Add(32, c, float64(c%5)-2)
	}
	add("all-in-last-row-33", m)

	// Hub columns: columns 0–2 are touched by nearly every row, so every
	// thread's transposed writes collide on the same few elements.
	m = sym(120, 120*5)
	rng = rand.New(rand.NewSource(1010))
	for r := 0; r < 120; r++ {
		m.Add(r, r, 500)
		for h := 0; h < 3 && h < r; h++ {
			m.Add(r, h, rng.NormFloat64())
		}
		if r > 4 {
			m.Add(r, 3+rng.Intn(r-3), rng.NormFloat64())
		}
	}
	add("hub-cols-120", m)

	// A diagonally dominant random matrix: the well-behaved control case.
	m = sym(150, 150*5)
	rng = rand.New(rand.NewSource(909))
	rowAbs := make([]float64, 150)
	for r := 1; r < 150; r++ {
		for k := 0; k < 4; k++ {
			c := rng.Intn(r)
			v := rng.NormFloat64()
			m.Add(r, c, v)
			rowAbs[r] += math.Abs(v)
			rowAbs[c] += math.Abs(v)
		}
	}
	for r := 0; r < 150; r++ {
		m.Add(r, r, rowAbs[r]+1)
	}
	add("random-spd-150", m)

	return cases
}

// KindSuite returns the adversarial taxonomy for the non-symmetric kinds:
// skew-symmetric matrices (Symmetric+Skew lower storage) and structurally
// symmetric ones (general storage, mirrored pattern, unmirrored values).
// The shapes mirror AdversarialSuite's sensitivities — tiny N below the
// thread counts, empty rows, extreme bandwidth, explicit zeros (for skew:
// explicit zero diagonal entries, the one diagonal a skew file may carry),
// and denormal/huge value mixes — because the kind-generalized kernel bodies
// share the symmetric bodies' partition and reduction machinery.
func KindSuite() []Case {
	var cases []Case
	add := func(name string, m *matrix.COO) {
		cases = append(cases, Case{Name: name, M: m})
	}

	// Tiny skew matrices, smaller than the largest thread count.
	for _, n := range []int{2, 3, 5, 7} {
		rng := rand.New(rand.NewSource(int64(1200 + n)))
		m := skew(n, n*3)
		for r := 1; r < n; r++ {
			for c := 0; c < r; c++ {
				if rng.Intn(2) == 0 {
					m.Add(r, c, rng.NormFloat64())
				}
			}
		}
		add("skew-tiny-"+itoa(n), m)
	}

	// Explicit zero diagonal entries: the only diagonal a skew matrix may
	// store. The ingestion path must accept them and the kernels must still
	// write y[r] = 0 rather than read a diagonal that is not there.
	m := skew(40, 160)
	rng := rand.New(rand.NewSource(1301))
	for r := 0; r < 40; r++ {
		m.Add(r, r, 0)
		if r > 0 {
			m.Add(r, rng.Intn(r), rng.NormFloat64())
		}
	}
	add("skew-zero-diag-40", m)

	// Empty rows (no entries at all) between populated bands.
	m = skew(97, 200)
	rng = rand.New(rand.NewSource(1401))
	for r := 1; r < 97; r++ {
		if (r >= 10 && r <= 20) || r >= 50 {
			continue
		}
		for k := 0; k < 2; k++ {
			m.Add(r, rng.Intn(r), rng.NormFloat64())
		}
	}
	add("skew-empty-rows-97", m)

	// Extreme bandwidth: every row reaches back to column 0, with a
	// partially cancelling duplicate in the far corner.
	m = skew(200, 240)
	for r := 1; r < 200; r++ {
		m.Add(r, 0, 1)
	}
	m.Add(199, 0, -0.25)
	add("skew-extreme-bandwidth-200", m)

	// Denormals and huge values: the transposed −v stream must keep the
	// same magnitude account as the symmetric +v one.
	m = skew(64, 300)
	rng = rand.New(rand.NewSource(1501))
	vals := []float64{5e-324, 1e-310, 1e150, -1e150, 1e-150}
	for r := 1; r < 64; r++ {
		for k := 0; k < 2; k++ {
			m.Add(r, rng.Intn(r), vals[rng.Intn(len(vals))])
		}
	}
	add("skew-mixed-magnitude-64", m)

	// Tiny structural matrices.
	for _, n := range []int{2, 3, 5, 7} {
		rng := rand.New(rand.NewSource(int64(1600 + n)))
		m := general(n, n*4)
		for r := 0; r < n; r++ {
			m.Add(r, r, float64(n)+1)
		}
		for r := 1; r < n; r++ {
			for c := 0; c < r; c++ {
				if rng.Intn(2) == 0 {
					m.Add(r, c, rng.NormFloat64())
					m.Add(c, r, rng.NormFloat64())
				}
			}
		}
		add("structural-tiny-"+itoa(n), m)
	}

	// Structural with empty rows and a partial diagonal: rows 30–60 hold
	// nothing, several diagonal slots are absent.
	m = general(97, 300)
	rng = rand.New(rand.NewSource(1701))
	for r := 0; r < 97; r++ {
		if r >= 30 && r <= 60 {
			continue
		}
		if r%3 != 0 {
			m.Add(r, r, 5)
		}
		if r > 0 && r < 30 {
			c := rng.Intn(r)
			m.Add(r, c, rng.NormFloat64())
			m.Add(c, r, rng.NormFloat64())
		}
	}
	add("structural-empty-rows-97", m)

	// Structural banded: long mirrored runs with independent values per
	// triangle, plus explicit zeros on one side only (the pattern mirrors,
	// the values need not).
	m = general(160, 160*8)
	rng = rand.New(rand.NewSource(1801))
	for r := 0; r < 160; r++ {
		m.Add(r, r, 20)
		for d := 1; d <= 4 && r-d >= 0; d++ {
			lo := rng.NormFloat64()
			if d == 3 {
				lo = 0 // explicit zero below, nonzero mirror above
			}
			m.Add(r, r-d, lo)
			m.Add(r-d, r, 1+rng.Float64())
		}
	}
	add("structural-banded-160", m)

	// Structural hub: columns 0–2 are touched by nearly every row in both
	// triangles — the degree-skew shape.
	m = general(120, 120*7)
	rng = rand.New(rand.NewSource(1901))
	for r := 0; r < 120; r++ {
		m.Add(r, r, 500)
		for h := 0; h < 3 && h < r; h++ {
			m.Add(r, h, rng.NormFloat64())
			m.Add(h, r, rng.NormFloat64())
		}
	}
	add("structural-hub-120", m)

	for _, c := range cases {
		c.M.Normalize()
	}
	return cases
}

func sym(n, nnzHint int) *matrix.COO {
	m := matrix.NewCOO(n, n, nnzHint)
	m.Symmetric = true
	return m
}

func skew(n, nnzHint int) *matrix.COO {
	m := sym(n, nnzHint)
	m.Skew = true
	return m
}

func general(n, nnzHint int) *matrix.COO {
	return matrix.NewCOO(n, n, nnzHint)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
