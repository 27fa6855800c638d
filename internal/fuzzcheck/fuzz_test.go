package fuzzcheck

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/csx"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// Native Go fuzz targets for the two parsers that consume untrusted bytes.
// `go test` runs the seed corpus (f.Add plus testdata/fuzz/) on every CI
// run; `make fuzz-smoke` additionally runs each target under the fuzzing
// engine for a short budget. The checked-in corpus files under
// testdata/fuzz/<Target>/ are the regression seeds: each one reproduced a
// pre-fix panic or mis-parse.

// FuzzReadMatrixMarket: never panic; the block reader agrees with the
// line-oriented reader it replaced (readReference) — same accept/reject, the
// same error text down to the line number, the same matrix bit for bit — and
// an accepted parse must produce a valid COO that survives a write/reparse
// round trip bit-exactly.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n% c\n3 4 3\n1 1 2.5\n3 4 -1e3\n2 2 0.125\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 4\n2 1 -1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate integer symmetric\r\n2 2 1\r\n2 1 7\r\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2 1.0")) // no trailing newline
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 1.0\n2 2 2.0\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n92233720368547758080 2 1\n1 1 1.0\n"))
	// Dimensions near the int32 limit with two out-of-order entries: must
	// parse, and sort, in memory bounded by the two entries.
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 2\n2000000000 1 1\n1 2000000000 2\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n% c\n\n2 2 oops\n"))    // data after the declared count
	f.Add([]byte("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 2\n2 1 3\n2 2 0.5\n"))       // skew file, nonzero diagonal
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 3\n+1 1 1\n2\u00a02 2\n3 3 1 1\n")) // tokens only the string path takes
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := matrix.ReadMatrixMarket(bytes.NewReader(data))
		want, wantErr := readReference(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("reader says %v, the line-oriented reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if m.Rows != want.Rows || m.Cols != want.Cols || m.Symmetric != want.Symmetric || m.Skew != want.Skew || m.NNZ() != want.NNZ() {
			t.Fatalf("parsed %dx%d nnz=%d sym=%v skew=%v, reference %dx%d nnz=%d sym=%v skew=%v",
				m.Rows, m.Cols, m.NNZ(), m.Symmetric, m.Skew, want.Rows, want.Cols, want.NNZ(), want.Symmetric, want.Skew)
		}
		for k := range want.Val {
			if m.RowIdx[k] != want.RowIdx[k] || m.ColIdx[k] != want.ColIdx[k] || math.Float64bits(m.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("entry %d is (%d,%d,%v), reference (%d,%d,%v)", k,
					m.RowIdx[k], m.ColIdx[k], m.Val[k], want.RowIdx[k], want.ColIdx[k], want.Val[k])
			}
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted matrix fails Validate: %v", err)
		}
		var out bytes.Buffer
		if err := matrix.WriteMatrixMarket(&out, m); err != nil {
			t.Fatalf("writing accepted matrix: %v", err)
		}
		back, err := matrix.ReadMatrixMarket(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reparsing own output: %v", err)
		}
		if back.Rows != m.Rows || back.Cols != m.Cols || back.NNZ() != m.NNZ() || back.Symmetric != m.Symmetric {
			t.Fatalf("round trip changed shape: %dx%d nnz=%d sym=%v -> %dx%d nnz=%d sym=%v",
				m.Rows, m.Cols, m.NNZ(), m.Symmetric, back.Rows, back.Cols, back.NNZ(), back.Symmetric)
		}
		for k := range m.Val {
			if back.RowIdx[k] != m.RowIdx[k] || back.ColIdx[k] != m.ColIdx[k] {
				t.Fatalf("round trip moved entry %d", k)
			}
			// Bit equality (%.17g round-trips float64 exactly); NaN payloads
			// canonicalize on both parses, so bits match there too.
			if math.Float64bits(back.Val[k]) != math.Float64bits(m.Val[k]) {
				t.Fatalf("round trip changed value %d: %g -> %g", k, m.Val[k], back.Val[k])
			}
		}
	})
}

// FuzzDecodeBlob drives raw ctl bytes through the blob walker — the decoder
// the hot kernels mirror — bypassing the file container and its CRC.
// Properties: DecodeToCOO and ValidateSymBlob never panic, and anything
// DecodeToCOO accepts is a structurally valid COO.
func FuzzDecodeBlob(f *testing.F) {
	// Pre-fix crashers: truncated uvarint, oversized uvarint, unknown
	// pattern, truncated bodies, out-of-range coordinates.
	f.Add([]byte{0xc0, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80}, uint16(1), uint16(8), false)
	f.Add([]byte{0xc0, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(1), uint16(8), false)
	f.Add([]byte{0xbf, 0x01, 0x00}, uint16(1), uint16(8), false)
	f.Add([]byte{0x81, 0x03, 0x00, 0x01}, uint16(3), uint16(8), false)
	f.Add([]byte{0x84, 0x03, 0x00}, uint16(3), uint16(2), true)
	f.Add([]byte{0x81, 0x01, 0x03}, uint16(1), uint16(4), true)
	// A legitimate stream: delta unit then a horizontal run on the next row.
	f.Add([]byte{0x81, 0x02, 0x00, 0x02, 0x85, 0x03, 0x01}, uint16(5), uint16(8), true)
	f.Fuzz(func(t *testing.T, ctl []byte, nvals, rows uint16, sym bool) {
		n := int(rows%512) + 1
		nv := int(nvals % 512)
		vals := make([]float64, nv)
		for i := range vals {
			vals[i] = 1.5
		}
		b := &csx.Blob{StartRow: 0, EndRow: int32(n), Ctl: ctl, Vals: vals, NNZ: nv}
		out, err := csx.DecodeToCOO(b, n, n, sym)
		if err == nil {
			if verr := out.Validate(); verr != nil {
				t.Fatalf("accepted blob decodes to invalid COO: %v", verr)
			}
		}
		// The kernel-invariant validator must reach a verdict without
		// panicking on arbitrary bytes, for any boundary.
		_ = csx.ValidateSymBlob(b, n, int32(n/2), nil)
		_ = csx.ValidateSymBlob(b, n, int32(n)+1, nil)
	})
}

// symBytes serializes a small CSX-Sym matrix, optionally corrupted in
// memory first — the resulting file always carries a valid CRC, so these
// inputs exercise the structural validation behind the checksum.
func symBytes(f testing.TB, method core.ReductionMethod, mutate func(sm *csx.SymMatrix)) []byte {
	m := matrix.NewCOO(24, 24, 24*3)
	m.Symmetric = true
	for r := 0; r < 24; r++ {
		m.Add(r, r, 6)
		for d := 1; d <= 2 && r-d >= 0; d++ {
			m.Add(r, r-d, -1)
		}
	}
	m.Normalize()
	s, err := core.FromCOO(m)
	if err != nil {
		f.Fatal(err)
	}
	sm := csx.NewSym(s, 2, method, csx.DefaultOptions())
	if mutate != nil {
		mutate(sm)
	}
	var buf bytes.Buffer
	if _, err := sm.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSymDeserialize: ReadSymMatrix never panics, and any matrix it accepts
// is safe to hand to the multiply kernels (whose own panics are builder
// invariants that validated input must never trip).
func FuzzSymDeserialize(f *testing.F) {
	clean := symBytes(f, core.Indexed, nil)
	f.Add(clean)
	f.Add(symBytes(f, core.Naive, nil))
	f.Add(symBytes(f, core.EffectiveRanges, nil))
	f.Add(symBytes(f, core.Indexed, func(sm *csx.SymMatrix) { sm.Blobs[1].Ctl[0] |= 0x3f }))
	f.Add(symBytes(f, core.Indexed, func(sm *csx.SymMatrix) { sm.Blobs[0].StartRow++ }))
	f.Add(clean[:len(clean)-5])
	f.Add(clean[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		sm, err := csx.ReadSymMatrix(bytes.NewReader(data))
		if err != nil {
			return
		}
		if sm.N > 1<<16 {
			// A structurally valid giant matrix (possible only with a
			// proportionally giant input) is not worth multiplying here.
			return
		}
		if _, err := csx.DecodeSymMatrix(sm); err != nil {
			t.Fatalf("accepted matrix fails to decode: %v", err)
		}
		x := make([]float64, sm.N)
		y := make([]float64, sm.N)
		for i := range x {
			x[i] = 1
		}
		pool := parallel.NewPool(len(sm.Blobs))
		defer pool.Close()
		sm.MulVec(pool, x, y)
	})
}

// TestCorruptMethodSeedIsStillRejected pins the checked-in corrupt-method seed
// across the removal of the Atomic reduction method: the seed stores method
// byte 3 — Atomic when gencorpus wrote it, Colored now — so regenerating it
// changes an identifier and not a byte, and ReadSymMatrix turns it away for the
// same reason as before (CSX-Sym runs the three local-vector methods only).
func TestCorruptMethodSeedIsStillRejected(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSymDeserialize", "corrupt-method"))
	if err != nil {
		t.Fatal(err)
	}
	quoted, ok := strings.CutPrefix(strings.TrimSuffix(string(file), ")\n"), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("corrupt-method is not a one-value []byte corpus file: %q", file[:min(len(file), 40)])
	}
	seed, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatal(err)
	}
	if core.Colored != 3 {
		t.Fatalf("core.Colored = %d; the seed stores method 3", core.Colored)
	}
	want := symBytes(t, core.Indexed, func(sm *csx.SymMatrix) { sm.Method = core.Colored })
	if !bytes.Equal([]byte(seed), want) {
		t.Fatal("the checked-in corrupt-method seed is not what gencorpus writes today; run go run ./internal/fuzzcheck/gencorpus")
	}
	if _, err := csx.ReadSymMatrix(bytes.NewReader([]byte(seed))); err == nil || !strings.Contains(err.Error(), "unsupported reduction method 3") {
		t.Fatalf("ReadSymMatrix(corrupt-method) = %v, want the unsupported-method error", err)
	}
}
