package csx

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Regression tests for the untrusted-bytes hardening: before the fixes,
// malformed ctl streams reaching the decode path panicked (truncated uvarint
// in ctl.go, unknown pattern), and ReadSymMatrix trusted blob contents as
// long as the CRC matched — but the CRC is computed over whatever bytes are
// in the file, so a file written from a corrupted in-memory matrix (or by an
// attacker) passes it trivially.

// mkBlob wraps raw ctl/vals into a Blob with a consistent header.
func mkBlob(startRow, endRow int32, ctl []byte, vals []float64) *Blob {
	return &Blob{StartRow: startRow, EndRow: endRow, Ctl: ctl, Vals: vals, NNZ: len(vals)}
}

func TestDecodeToCOOMalformed(t *testing.T) {
	// Each case used to panic or index out of range inside DecodeToCOO /
	// the uvarint helper; all must now return an error.
	cases := []struct {
		name string
		blob *Blob
		want string // substring of the expected error
	}{
		{
			"truncated uvarint",
			// NR unit head, then a column-delta varint with every
			// continuation bit set and no terminator.
			mkBlob(0, 4, []byte{0x80 | byte(Delta8), 1, 0x80, 0x80, 0x80, 0x80, 0x80}, []float64{1}),
			"truncated or oversized column-delta varint",
		},
		{
			"oversized uvarint",
			// Six continuation bytes: > 32 bits of payload.
			mkBlob(0, 4, []byte{0x80 | byte(Delta8), 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []float64{1}),
			"truncated or oversized column-delta varint",
		},
		{
			"truncated row-jump varint",
			mkBlob(0, 4, []byte{0x80 | 0x40 | byte(Delta8), 1, 0x80}, []float64{1}),
			"truncated or oversized row-jump varint",
		},
		{
			"unknown pattern",
			mkBlob(0, 4, []byte{0x80 | 0x3f, 1, 0}, []float64{1}),
			"unknown pattern",
		},
		{
			"truncated unit head",
			mkBlob(0, 4, []byte{0x80 | byte(Delta8)}, nil),
			"truncated unit head",
		},
		{
			"zero-size unit",
			mkBlob(0, 4, []byte{0x80 | byte(Delta8), 0, 0}, nil),
			"zero-size unit",
		},
		{
			"truncated delta body",
			mkBlob(0, 4, []byte{0x80 | byte(Delta8), 3, 0, 1}, []float64{1, 2, 3}),
			"truncated delta body",
		},
		{
			"column delta beyond matrix",
			mkBlob(0, 4, []byte{0x80 | byte(Delta8), 1, 0xff, 0x7f}, []float64{1}),
			"column delta",
		},
		{
			"row jump beyond matrix",
			mkBlob(0, 4, []byte{0x80 | 0x40 | byte(Delta8), 1, 0xff, 0x7f, 0}, []float64{1}),
			"row jump",
		},
		{
			"element outside matrix",
			// Unit anchored at row 0, Vertical size 3 walks rows 0..2 of a
			// 2x2 matrix.
			mkBlob(0, 2, []byte{0x80 | byte(Vertical), 3, 0}, []float64{1, 2, 3}),
			"outside",
		},
		{
			"values exhausted",
			mkBlob(0, 4, []byte{0x80 | byte(Delta8), 2, 1, 1}, []float64{7}),
			"values exhausted",
		},
		{
			"values left over",
			mkBlob(0, 4, []byte{0x80 | byte(Delta8), 1, 1}, []float64{7, 8}),
			"not consumed",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := int(tc.blob.EndRow)
			_, err := DecodeToCOO(tc.blob, rows, rows, false)
			if err == nil {
				t.Fatalf("DecodeToCOO accepted a malformed blob")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDecodeToCOORejectsUpperTriangle(t *testing.T) {
	// Element (1, 3) of a symmetric blob: in range, but above the diagonal.
	// Pre-fix this reached matrix.COO.Add, which panics on symmetric
	// upper-triangle inserts.
	b := mkBlob(1, 2, []byte{0x80 | byte(Delta8), 1, 3}, []float64{1})
	if _, err := DecodeToCOO(b, 4, 4, true); err == nil {
		t.Fatal("DecodeToCOO accepted an upper-triangle element in a symmetric blob")
	}
	// The same blob decoded as unsymmetric is fine.
	if _, err := DecodeToCOO(b, 4, 4, false); err != nil {
		t.Fatalf("unsymmetric decode of a valid blob failed: %v", err)
	}
}

func TestValidateSymBlobStraddle(t *testing.T) {
	// A horizontal run over columns 2..5 of row 8. Legal when the boundary
	// is outside (2,5]; a straddle — which would make mulBlobSym write past
	// the end of the thread's local vector — when it falls inside.
	b := mkBlob(8, 9, []byte{0x80 | byte(Horizontal), 4, 2}, []float64{1, 2, 3, 4})
	if err := ValidateSymBlob(b, 10, 2, nil); err != nil {
		t.Fatalf("boundary 2 (all direct): %v", err)
	}
	if err := ValidateSymBlob(b, 10, 6, nil); err != nil {
		t.Fatalf("boundary 6 (all local): %v", err)
	}
	err := ValidateSymBlob(b, 10, 4, nil)
	if err == nil {
		t.Fatal("boundary 4: straddling unit accepted")
	}
	if !strings.Contains(err.Error(), "straddle") {
		t.Errorf("error %q does not mention straddling", err)
	}
}

func TestValidateSymBlobRowAndTriangle(t *testing.T) {
	// Row outside the blob's declared range.
	b := mkBlob(2, 3, []byte{0x80 | 0x40 | byte(Delta8), 1, 2, 0}, []float64{1})
	if err := ValidateSymBlob(b, 10, 0, nil); err == nil {
		t.Error("element outside the blob row range accepted")
	}
	// Diagonal element (r == c): the strict lower triangle excludes it.
	b = mkBlob(2, 3, []byte{0x80 | byte(Delta8), 1, 2}, []float64{1})
	if err := ValidateSymBlob(b, 10, 0, nil); err == nil {
		t.Error("diagonal element accepted as strict-lower")
	}
	// NNZ header disagreeing with the value array.
	b = mkBlob(2, 3, []byte{0x80 | byte(Delta8), 1, 0}, []float64{1})
	b.NNZ = 5
	if err := ValidateSymBlob(b, 10, 0, nil); err == nil {
		t.Error("NNZ/values mismatch accepted")
	}
}

// serializeSym round-trips a small CSX-Sym matrix through WriteTo after the
// caller has (possibly) corrupted the in-memory form. The CRC in the output
// is always valid — it covers whatever bytes were written — so these bytes
// exercise the structural validation, not the checksum.
func serializeSym(t *testing.T, mutate func(sm *SymMatrix)) []byte {
	t.Helper()
	m := matrix.NewCOO(40, 40, 40*4)
	m.Symmetric = true
	for r := 0; r < 40; r++ {
		m.Add(r, r, 5)
		for d := 1; d <= 3 && r-d >= 0; d++ {
			m.Add(r, r-d, 1)
		}
	}
	m.Normalize()
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	sm := NewSym(s, 3, core.Indexed, DefaultOptions())
	if mutate != nil {
		mutate(sm)
	}
	var buf bytes.Buffer
	if _, err := sm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadSymMatrixRejectsCorruptBlobs(t *testing.T) {
	// Sanity: the unmutated file round-trips.
	if _, err := ReadSymMatrix(bytes.NewReader(serializeSym(t, nil))); err != nil {
		t.Fatalf("clean round-trip failed: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(sm *SymMatrix)
	}{
		{"unknown pattern in ctl", func(sm *SymMatrix) {
			sm.Blobs[1].Ctl[0] |= 0x3f
		}},
		{"truncated ctl stream", func(sm *SymMatrix) {
			b := sm.Blobs[1]
			b.Ctl = b.Ctl[:len(b.Ctl)-1]
		}},
		{"ctl/value count mismatch", func(sm *SymMatrix) {
			b := sm.Blobs[1]
			b.Vals = b.Vals[:len(b.Vals)-1]
			b.NNZ = len(b.Vals)
		}},
		{"blob rows disagree with partition", func(sm *SymMatrix) {
			sm.Blobs[1].StartRow--
		}},
		{"unsupported reduction method", func(sm *SymMatrix) {
			sm.Method = core.Colored
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := serializeSym(t, tc.mutate)
			sm, err := ReadSymMatrix(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("corrupt file accepted (method=%v)", sm.Method)
			}
		})
	}
}

func TestReadSymMatrixLyingHeader(t *testing.T) {
	// A header claiming a huge matrix in a tiny file must fail on the short
	// read, not attempt a multi-gigabyte allocation. 100M rows declares
	// 800 MB of dvalues; the chunked reader allocates at most one chunk
	// before hitting EOF.
	var buf bytes.Buffer
	buf.WriteString(serialMagic)
	le := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			buf.WriteByte(byte(v >> (8 * i)))
		}
	}
	le(serialVersion, 4)
	le(100_000_000, 8)          // n
	le(50, 8)                   // nnzLower
	le(2, 4)                    // p
	buf.Write(make([]byte, 64)) // far less than n×8 bytes of dvalues
	_, err := ReadSymMatrix(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("lying header accepted")
	}
	if !strings.Contains(err.Error(), "dvalues") {
		t.Errorf("error %q does not point at the dvalues read", err)
	}
}

// TestStripsAreUntrustedInput: each strip the kernels must not run is refused
// with its typed error — by ValidateSymBlob, and for a triangle in a plain
// blob by DecodeToCOO — and the same bytes with the fault taken out pass.
func TestStripsAreUntrustedInput(t *testing.T) {
	strip3, strip2 := byte(Strip3), byte(Strip2)
	cases := []struct {
		name      string
		bad, good *Blob
		boundary  int32
		want      error
	}{
		{"strip with no runs and no triangle", mkBlob(4, 8, []byte{0x80 | strip3, 0}, nil),
			mkBlob(4, 8, []byte{0x80 | flagTri | strip3, 0}, make([]float64, 3)), 0, ErrEmptyStrip},
		{"triangle past EndRow", mkBlob(4, 6, []byte{0x80 | flagTri | strip3, 0}, make([]float64, 3)),
			mkBlob(4, 7, []byte{0x80 | flagTri | strip3, 0}, make([]float64, 3)), 0, ErrTriangleRows},
		{"triangle before StartRow", mkBlob(4, 8, []byte{flagTri | strip2, 0}, make([]float64, 1)),
			mkBlob(4, 8, []byte{0x80 | flagTri | strip2, 0}, make([]float64, 1)), 0, ErrTriangleRows},
		{"run across the write boundary", mkBlob(8, 10, []byte{0x80 | strip2, 1, 2, 4}, make([]float64, 8)),
			mkBlob(8, 10, []byte{0x80 | strip2, 2, 2, 2, 1, 2}, make([]float64, 8)), 4, ErrStraddle},
	}
	for _, c := range cases {
		if err := ValidateSymBlob(c.bad, 10, c.boundary, nil); !errors.Is(err, c.want) {
			t.Errorf("%s: ValidateSymBlob returned %v, want %v", c.name, err, c.want)
		}
		if err := ValidateSymBlob(c.good, 10, c.boundary, nil); err != nil {
			t.Errorf("%s, mended: %v", c.name, err)
		}
	}
	if err := ValidateSymBlob(mkBlob(4, 8, []byte{0x80 | flagTri | byte(Delta8), 1, 0}, make([]float64, 1)), 10, 0, nil); err == nil || !strings.Contains(err.Error(), "triangle flag") {
		t.Errorf("a triangle flag on a delta unit: %v", err)
	}
	// A strip of rows 4 and 5 with a run over columns 0..1 and its triangle:
	// CSX-Sym's, never plain CSX's.
	b := mkBlob(4, 6, []byte{0x80 | flagTri | strip2, 1, 0, 2}, make([]float64, 5))
	if _, err := DecodeToCOO(b, 6, 6, false); !errors.Is(err, ErrTriangleInPlain) {
		t.Errorf("plain DecodeToCOO of a triangle returned %v, want %v", err, ErrTriangleInPlain)
	}
	if _, err := DecodeToCOO(b, 6, 6, true); err != nil {
		t.Errorf("symmetric DecodeToCOO of the same strip: %v", err)
	}
}

// TestReadSymMatrixNamesBothVersions: a file of the previous serialize
// version is refused with an error that names its version and this reader's.
func TestReadSymMatrixNamesBothVersions(t *testing.T) {
	data := serializeSym(t, nil)
	data[4] = serialVersion - 1
	_, err := ReadSymMatrix(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", serialVersion-1)) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", serialVersion)) {
		t.Fatalf("a version-%d file: %v, want an error naming versions %d and %d", serialVersion-1, err, serialVersion-1, serialVersion)
	}
}
