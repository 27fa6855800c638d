package matrix

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 2.5
3 4 -1e3
2 2 0.125
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 4 || m.NNZ() != 3 || m.Symmetric {
		t.Fatalf("parsed shape %dx%d nnz=%d sym=%v", m.Rows, m.Cols, m.NNZ(), m.Symmetric)
	}
	if m.Val[0] != 2.5 || m.RowIdx[0] != 0 || m.ColIdx[0] != 0 {
		t.Errorf("first entry = (%d,%d,%g)", m.RowIdx[0], m.ColIdx[0], m.Val[0])
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 4
2 1 -1
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Symmetric || m.LogicalNNZ() != 3 {
		t.Fatalf("sym=%v logical=%d", m.Symmetric, m.LogicalNNZ())
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 || m.Val[0] != 1 {
		t.Fatalf("pattern values: %v", m.Val)
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":      "%%NotMatrixMarket matrix coordinate real general\n1 1 0\n",
		"bad object":      "%%MatrixMarket tensor coordinate real general\n1 1 0\n",
		"array format":    "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
		"bad field":       "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"bad symmetry":    "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
		"nonsquare sym":   "%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n",
		"short entries":   "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
		"out of range":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
		"malformed value": "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
		// Regression cases for the hardened parser: each of these was
		// accepted (or mis-handled) by the pre-Scanner implementation.
		"extra entries":         "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 2.0\n",
		"extra entries sym":     "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 1.0\n2 2 2.0\n",
		"index overflows int":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n92233720368547758080 1 1.0\n",
		"dims overflow int32":   "%%MatrixMarket matrix coordinate real general\n4294967296 4294967296 1\n1 1 1.0\n",
		"size line overflow":    "%%MatrixMarket matrix coordinate real general\n92233720368547758080 2 1\n1 1 1.0\n",
		"four-field size line":  "%%MatrixMarket matrix coordinate real general\n2 2 1 9\n1 1 1.0\n",
		"missing size line":     "%%MatrixMarket matrix coordinate real general\n% only comments\n",
		"lying nnz (too large)": "%%MatrixMarket matrix coordinate real general\n2 2 1000000000000\n1 1 1.0\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

func TestReadMatrixMarketLineNumbers(t *testing.T) {
	// Diagnostics must name the offending 1-based line: the bad value here
	// sits on line 5 (header, comment, size line, good entry, bad entry).
	in := "%%MatrixMarket matrix coordinate real general\n% comment\n2 2 2\n1 1 1.0\n2 2 abc\n"
	_, err := ReadMatrixMarket(strings.NewReader(in))
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 5") {
		t.Errorf("error %q does not name line 5", err)
	}
}

func TestReadMatrixMarketNoTrailingNewline(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 2.0"
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 || m.Val[1] != 2.0 {
		t.Fatalf("parsed %d entries, vals %v", m.NNZ(), m.Val)
	}
}

func TestReadMatrixMarketCRLF(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real symmetric\r\n% dos file\r\n2 2 2\r\n1 1 4.0\r\n2 1 -1.0\r\n"
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Symmetric || m.NNZ() != 2 || m.Val[0] != 4.0 {
		t.Fatalf("CRLF parse: sym=%v nnz=%d vals=%v", m.Symmetric, m.NNZ(), m.Val)
	}
}

func TestMatrixMarketRoundTripFile(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewCOO(60, 60, 240)
	m.Symmetric = true
	for r := 0; r < 60; r++ {
		m.Add(r, r, 1+rng.Float64())
		for k := 0; k < 3 && r > 0; k++ {
			m.Add(r, rng.Intn(r), rng.NormFloat64())
		}
	}
	m.Normalize()

	path := filepath.Join(t.TempDir(), "roundtrip.mtx")
	if err := WriteMatrixMarketFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarketFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != m.Rows || back.NNZ() != m.NNZ() || back.Symmetric != m.Symmetric {
		t.Fatalf("shape mismatch after round trip: %dx%d nnz=%d", back.Rows, back.Cols, back.NNZ())
	}
	for k := range m.Val {
		if back.RowIdx[k] != m.RowIdx[k] || back.ColIdx[k] != m.ColIdx[k] {
			t.Fatalf("entry %d coordinates differ", k)
		}
		if math.Abs(back.Val[k]-m.Val[k]) > 0 {
			// %.17g round-trips float64 exactly
			t.Fatalf("entry %d value %g != %g", k, back.Val[k], m.Val[k])
		}
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, err := ReadMatrixMarketFile("/nonexistent/nope.mtx"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// sameCOO reports the first difference between two matrices, bit for bit.
func sameCOO(got, want *COO) error {
	if got.Rows != want.Rows || got.Cols != want.Cols || got.Symmetric != want.Symmetric || got.Skew != want.Skew {
		return fmt.Errorf("shape %dx%d sym=%v skew=%v, want %dx%d sym=%v skew=%v",
			got.Rows, got.Cols, got.Symmetric, got.Skew, want.Rows, want.Cols, want.Symmetric, want.Skew)
	}
	if got.NNZ() != want.NNZ() || len(got.RowIdx) != len(want.RowIdx) || len(got.ColIdx) != len(want.ColIdx) {
		return fmt.Errorf("%d entries, want %d", got.NNZ(), want.NNZ())
	}
	for k := range want.Val {
		if got.RowIdx[k] != want.RowIdx[k] || got.ColIdx[k] != want.ColIdx[k] ||
			math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			return fmt.Errorf("entry %d = (%d,%d,%v), want (%d,%d,%v)", k,
				got.RowIdx[k], got.ColIdx[k], got.Val[k], want.RowIdx[k], want.ColIdx[k], want.Val[k])
		}
	}
	return nil
}

// checkAgainstReference holds ReadMatrixMarket to readReference on one input:
// open returns a fresh reader over it for each side.
func checkAgainstReference(t *testing.T, name string, open func() io.Reader) {
	t.Helper()
	want, wantErr := readReference(open())
	got, err := ReadMatrixMarket(open())
	switch {
	case wantErr != nil && err == nil:
		t.Errorf("%s: accepted, reference says %q", name, wantErr)
	case wantErr != nil && err.Error() != wantErr.Error():
		t.Errorf("%s: error %q, reference says %q", name, err, wantErr)
	case wantErr == nil && err != nil:
		t.Errorf("%s: rejected with %q, reference accepts", name, err)
	case wantErr == nil:
		if d := sameCOO(got, want); d != nil {
			t.Errorf("%s: %v", name, d)
		}
	}
}

// withBlockSize runs f with the reader taking n bytes from the stream at a time.
func withBlockSize(n int, f func()) {
	defer func(old int) { mmBlockSize = old }(mmBlockSize)
	mmBlockSize = n
	f()
}

// edgeCases are small files, good and bad, that TestReadMatrixMarketBlockEdges
// reads at every block size: each line of each file straddles a block edge at
// some size, and every fault sits in block 0 at one size and in block k > 0 at
// another.
var edgeCases = map[string]string{
	"general":        "%%MatrixMarket matrix coordinate real general\n% a comment\n3 4 3\n1 1 2.5\n3 4 -1e3\n2 2 0.125\n",
	"unsorted dups":  "%%MatrixMarket matrix coordinate real general\n3 3 5\n3 3 1\n1 2 0.5\n3 3 1e-3\n1 1 7\n3 3 -1\n",
	"symmetric":      "%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 4\n2 1 -1\n1 3 0.5\n3 3 2\n",
	"skew mirror":    "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 3\n2 1 3\n1 3 -2\n2 2 0\n",
	"pattern":        "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1 ignored\n",
	"integer":        "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 7\n2 1 -3\n",
	"crlf":           "%%MatrixMarket matrix coordinate real symmetric\r\n% dos file\r\n2 2 2\r\n1 1 4.0\r\n2 1 -1.0\r\n",
	"crcrlf":         "%%MatrixMarket matrix coordinate real general\r\r\n2 2 1\r\r\n1 1 4.0\r\r\n",
	"no final eol":   "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 2.0",
	"final cr":       "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n\r",
	"interleaved":    "%%MatrixMarket matrix coordinate real general\n\n% c\n2 2 2\n\n1 1 1.0\n% between\n   \n\t2 2 2.0\n\n% after\n",
	"odd tokens":     "%%MatrixMarket matrix coordinate real general\n20 20 4\n+1 1 1\n 0000000002\t2  0x1p-2 extra\n3 3 inf\n4 4 NaN\n",
	"unicode space":  "%%MatrixMarket matrix coordinate real general\n2 2 2\n\u00a01\u20031 2.5\u00a0junk\n\u0085% not data\n2 2 1\u00a0\n",
	"bad unicode":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\xa01 2.5\n",
	"empty":          "",
	"only header":    "%%MatrixMarket matrix coordinate real general",
	"blank header":   "\n%%MatrixMarket matrix coordinate real general\n1 1 0\n",
	"zero entries":   "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
	"bad header":     "%%NotMatrixMarket matrix coordinate real general\n1 1 0\n",
	"bad size":       "%%MatrixMarket matrix coordinate real general\n% c\n2 2 1 9\n1 1 1.0\n",
	"negative size":  "%%MatrixMarket matrix coordinate real general\n2 -2 1\n1 1 1.0\n",
	"no size":        "%%MatrixMarket matrix coordinate real general\n% only comments\n",
	"nonsquare sym":  "%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n",
	"short entries":  "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
	"short line":     "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2\n",
	"bad index":      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 x 1\n",
	"index overflow": "%%MatrixMarket matrix coordinate real general\n2 2 1\n92233720368547758080 1 1.0\n",
	"ten digits":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1000000001 1 1.0\n",
	"bad value":      "%%MatrixMarket matrix coordinate real general\n% comment\n2 2 2\n1 1 1.0\n2 2 abc\n",
	"out of range":   "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n3 1 1.0\n",
	"zero index":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
	"skew diagonal":  "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 2\n2 1 3\n2 2 0.5\n",
	"extra entries":  "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 1.0\n% c\n\n2 2 2.0\n2 2 oops\n",
	"extra then bad": "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n9 9 bad\n",
	"two faults":     "%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 1.0\n2 2 abc\n1 2 1.0\n7 7 1.0\n",
	"lying nnz":      "%%MatrixMarket matrix coordinate real general\n2 2 1000000000000\n1 1 1.0\n",
	"huge dims":      "%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 2\n2000000000 1 1\n1 2000000000 2\n",
	"dims overflow":  "%%MatrixMarket matrix coordinate real general\n4294967296 4294967296 1\n1 1 1.0\n",
}

func TestReadMatrixMarketBlockEdges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // up to three helpers, whatever the box has
	for name, in := range edgeCases {
		for bs := 1; bs <= len(in)+1; bs++ {
			withBlockSize(bs, func() {
				checkAgainstReference(t, fmt.Sprintf("%s/block=%d", name, bs), func() io.Reader { return strings.NewReader(in) })
			})
		}
		checkAgainstReference(t, name, func() io.Reader { return strings.NewReader(in) })
	}
}

// FuzzReadMatrixMarketBlocks is FuzzReadMatrixMarket of internal/fuzzcheck
// with the one thing that target cannot reach: block edges. A fuzz input is
// smaller than a block, so here the block size is an input too.
func FuzzReadMatrixMarketBlocks(f *testing.F) {
	for _, in := range edgeCases {
		f.Add([]byte(in), uint8(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, bs uint8) {
		withBlockSize(int(bs)+1, func() {
			checkAgainstReference(t, "fuzz", func() io.Reader { return bytes.NewReader(data) })
		})
	})
}

// bandFile is a Matrix Market file of about lines entry lines: a symmetric
// band, row-major, values with the digits a %.17g writer produces.
func bandFile(lines int) []byte {
	const band = 8
	n := lines / band
	m := NewCOO(n, n, n*band)
	m.Symmetric = true
	rng := rand.New(rand.NewSource(int64(lines)))
	for r := 0; r < n; r++ {
		for c := max(0, r-band+1); c <= r; c++ {
			m.Add(r, c, rng.NormFloat64())
		}
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestReadMatrixMarketManyBlocks reads a file of a few hundred blocks with
// helpers running, clean and with a fault planted late in it.
func TestReadMatrixMarketManyBlocks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	file := bandFile(20000)
	late := bytes.LastIndex(file[:len(file)*3/4], []byte("\n")) + 1
	surplus := append(append([]byte(nil), file...), "1 1 1\n7 7 bad\n"...)
	for _, bs := range []int{1 << 10, 1<<12 + 1} {
		withBlockSize(bs, func() {
			checkAgainstReference(t, "clean", func() io.Reader { return bytes.NewReader(file) })
			checkAgainstReference(t, "one byte at a time", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(file)) })
			checkAgainstReference(t, "data with EOF", func() io.Reader { return iotest.DataErrReader(bytes.NewReader(file)) })
			bad := append(append(append([]byte(nil), file[:late]...), "1 1 oops\n"...), file[late:]...)
			checkAgainstReference(t, "late fault", func() io.Reader { return bytes.NewReader(bad) })
			bad = append(append([]byte(nil), bad[:len(bad)/3]...), bad[len(bad)/3+1:]...) // and an earlier one: a byte lost
			checkAgainstReference(t, "two faults", func() io.Reader { return bytes.NewReader(bad) })
			checkAgainstReference(t, "surplus", func() io.Reader { return bytes.NewReader(surplus) })
		})
	}
}

func TestReadMatrixMarketLineLimit(t *testing.T) {
	head := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
	comment := func(n int) string { return "%" + strings.Repeat("x", n-1) }
	cases := map[string]string{
		"longest line":        head + comment(mmMaxLine-1) + "\n2 2 2.0\n",
		"too long":            head + comment(mmMaxLine) + "\n2 2 2.0\n",
		"too long, no eol":    head + "2 2 2.0\n" + comment(mmMaxLine),
		"longest, no eol":     head + "2 2 2.0\n" + comment(mmMaxLine-1),
		"too long data":       head + "2 2 " + strings.Repeat("0", mmMaxLine) + "\n",
		"fault before it":     head + "2 x 2.0\n" + comment(mmMaxLine) + "\n",
		"too long header":     comment(mmMaxLine) + "\n" + head,
		"too long in preface": "%%MatrixMarket matrix coordinate real general\n" + comment(2*mmMaxLine) + "\n2 2 0\n",
	}
	for name, in := range cases {
		_, err := readReference(strings.NewReader(in))
		if wantLong := strings.HasPrefix(name, "too long"); wantLong != errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("%s: reference error %v, want ErrTooLong=%v", name, err, wantLong)
		}
		for _, bs := range []int{mmBlockSize, 4096, 1000003} {
			withBlockSize(bs, func() {
				checkAgainstReference(t, fmt.Sprintf("%s/block=%d", name, bs), func() io.Reader { return strings.NewReader(in) })
			})
		}
	}
}

// failAfter yields the first n bytes of data, then err.
type failAfter struct {
	data []byte
	n    int
	err  error
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, f.err
	}
	k := copy(p, f.data[:f.n])
	f.data, f.n = f.data[k:], f.n-k
	return k, nil
}

func TestReadMatrixMarketReaderFails(t *testing.T) {
	boom := errors.New("disk on fire")
	in := []byte(edgeCases["interleaved"])
	for cut := 0; cut <= len(in); cut++ {
		for _, bs := range []int{7, mmBlockSize} {
			withBlockSize(bs, func() {
				checkAgainstReference(t, fmt.Sprintf("cut=%d/block=%d", cut, bs),
					func() io.Reader { return &failAfter{data: in, n: cut, err: boom} })
			})
		}
	}
	if _, err := ReadMatrixMarket(&failAfter{data: in, n: len(in) - 1, err: boom}); !errors.Is(err, boom) {
		t.Errorf("error %v does not wrap the reader's", err)
	}
	checkAgainstReference(t, "no progress", func() io.Reader { return &failAfter{data: in, n: 0, err: nil} })
	checkAgainstReference(t, "timeout", func() io.Reader { return iotest.TimeoutReader(bytes.NewReader(in)) })
}

// allocated reports the objects and bytes one call of f allocates.
func allocated(f func()) (objects float64, bytes uint64) {
	objects = testing.AllocsPerRun(2, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return objects, after.TotalAlloc - before.TotalAlloc
}

// TestReadMatrixMarketAllocates is the allocation gate: objects per block,
// not per line (the line-oriented reader allocated about three per line), and
// bytes from what the file holds, not from what its size line claims.
func TestReadMatrixMarketAllocates(t *testing.T) {
	file := bandFile(100000)
	blocks := len(file)/mmBlockSize + 1
	objects, _ := allocated(func() {
		if _, err := ReadMatrixMarket(bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(12*blocks + 40); objects > limit {
		t.Errorf("%d lines in %d blocks: %.0f allocations, want at most %.0f", 100000, blocks, objects, limit)
	}
	for _, name := range []string{"lying nnz", "huge dims"} {
		in := edgeCases[name]
		_, size := allocated(func() { ReadMatrixMarket(strings.NewReader(in)) })
		if limit := uint64(2*mmBlockSize + 1<<18); size > limit {
			t.Errorf("%s: %d bytes allocated for a %d-byte file, want at most %d", name, size, len(in), limit)
		}
	}
}

func TestWriteMatrixMarketMatchesFmt(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
		1e21, 1e20, 123456789012345678, 1e-7, 1e-4, 0.1, 1.0 / 3, 1, -1, 2, 100, 1 << 53,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000001)}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()), rng.NormFloat64(), float64(rng.Intn(1000)))
	}
	m := &COO{Rows: math.MaxInt32, Cols: math.MaxInt32}
	var want strings.Builder
	fmt.Fprintf(&want, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", m.Rows, m.Cols, len(vals))
	for k, v := range vals {
		r, c := int32(k), int32(math.MaxInt32-1-k)
		m.RowIdx, m.ColIdx, m.Val = append(m.RowIdx, r), append(m.ColIdx, c), append(m.Val, v)
		fmt.Fprintf(&want, "%d %d %.17g\n", int(r)+1, int(c)+1, v)
	}
	var got bytes.Buffer
	if err := WriteMatrixMarket(&got, m); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				t.Fatalf("line %d: wrote %q, fmt prints %q", i+1, gl[min(i, len(gl)-1)], wl[i])
			}
		}
		t.Fatal("output differs from fmt's")
	}
	// fmt and strconv agree on the non-finite spellings; the reader takes all three.
	for _, s := range []string{" +Inf\n", " -Inf\n", " NaN\n"} {
		if !strings.Contains(got.String(), s) {
			t.Errorf("no line ends in %q", s)
		}
	}
}

// readReference is the line-oriented reader (bufio.Scanner, one string and
// one strings.Fields slice per line, COO.Add per entry) that ReadMatrixMarket
// replaced, kept as the oracle: the block reader must accept and reject the
// same inputs, with the same diagnostic and the same matrix.
// internal/fuzzcheck holds a copy for FuzzReadMatrixMarket, since test code
// cannot be imported across packages. Keep the two identical.
func readReference(r io.Reader) (*COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineno := 0
	// scan returns the next line (CR trimmed) with its number; ok=false at
	// EOF or scanner error.
	scan := func() (string, bool) {
		if !sc.Scan() {
			return "", false
		}
		lineno++
		return strings.TrimSuffix(sc.Text(), "\r"), true
	}

	header, ok := scan()
	if !ok {
		return nil, fmt.Errorf("matrixmarket: reading header: %w", scanErr(sc))
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("matrixmarket: bad header %q", strings.TrimSpace(header))
	}
	object, format, field, symmetry := fields[1], fields[2], fields[3], fields[4]
	if object != "matrix" {
		return nil, fmt.Errorf("matrixmarket: unsupported object %q", object)
	}
	if format != "coordinate" {
		return nil, fmt.Errorf("matrixmarket: unsupported format %q (only coordinate)", format)
	}
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("matrixmarket: unsupported field %q", field)
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("matrixmarket: unsupported symmetry %q", symmetry)
	}
	if symmetry == "skew-symmetric" && field == "pattern" {
		// A pattern file has no values to negate; the combination is
		// meaningless (and the MM spec excludes it).
		return nil, fmt.Errorf("matrixmarket: skew-symmetric pattern matrices are not defined")
	}

	// Skip comments, read the size line.
	var sizeLine string
	for {
		line, ok := scan()
		if !ok {
			return nil, fmt.Errorf("matrixmarket: missing size line: %w", scanErr(sc))
		}
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		sizeLine = t
		break
	}
	f := strings.Fields(sizeLine)
	if len(f) != 3 {
		return nil, fmt.Errorf("matrixmarket: line %d: bad size line %q", lineno, sizeLine)
	}
	rows, err1 := strconv.Atoi(f[0])
	cols, err2 := strconv.Atoi(f[1])
	nnz, err3 := strconv.Atoi(f[2])
	if err1 != nil || err2 != nil || err3 != nil || rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("matrixmarket: line %d: bad size line %q", lineno, sizeLine)
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		// COO stores coordinates as int32; larger declared dims would
		// silently truncate every index.
		return nil, fmt.Errorf("matrixmarket: line %d: dimensions %dx%d exceed %d", lineno, rows, cols, math.MaxInt32)
	}

	// The declared nnz is a capacity hint from untrusted input: cap it so a
	// size line claiming 10^15 entries in a 100-byte file costs at most one
	// modest allocation. Append growth covers honest large files.
	hint := nnz
	if hint > 1<<20 {
		hint = 1 << 20
	}
	m := NewCOO(rows, cols, hint)
	m.Symmetric = symmetry == "symmetric" || symmetry == "skew-symmetric"
	m.Skew = symmetry == "skew-symmetric"
	if m.Symmetric && rows != cols {
		return nil, fmt.Errorf("matrixmarket: %s %dx%d matrix is not square", symmetry, rows, cols)
	}

	read := 0
	for {
		line, ok := scan()
		if !ok {
			break
		}
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		if read == nnz {
			// More data lines than the size line declares: for symmetric
			// files the mirrored extras would silently double entries, so
			// reject rather than ignore.
			return nil, fmt.Errorf("matrixmarket: line %d: data after the %d declared entries", lineno, nnz)
		}
		f := strings.Fields(t)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("matrixmarket: line %d: short line %q", lineno, t)
		}
		r1, err1 := strconv.Atoi(f[0])
		c1, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("matrixmarket: line %d: bad indices in %q", lineno, t)
		}
		v := 1.0
		if field != "pattern" {
			v, err1 = strconv.ParseFloat(f[2], 64)
			if err1 != nil {
				return nil, fmt.Errorf("matrixmarket: line %d: bad value in %q", lineno, t)
			}
		}
		r0, c0 := r1-1, c1-1 // Matrix Market is 1-based
		if r0 < 0 || r0 >= rows || c0 < 0 || c0 >= cols {
			return nil, fmt.Errorf("matrixmarket: line %d: entry (%d,%d) outside %dx%d", lineno, r1, c1, rows, cols)
		}
		if m.Skew && r0 == c0 && v != 0 {
			// A = -Aᵀ forces a zero diagonal; a nonzero diagonal entry means
			// the file is mislabeled, not merely untidy.
			return nil, fmt.Errorf("matrixmarket: line %d: nonzero diagonal entry (%d,%d)=%g in skew-symmetric matrix", lineno, r1, c1, v)
		}
		if m.Symmetric && c0 > r0 {
			// UF symmetric files store the lower triangle, but be liberal:
			// mirror stray upper entries down. For skew files the mirror is
			// the negation — copying the value unchanged would silently
			// corrupt it.
			r0, c0 = c0, r0
			if m.Skew {
				v = -v
			}
		}
		m.Add(r0, c0, v)
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("matrixmarket: line %d: %w", lineno+1, err)
	}
	if read != nnz {
		return nil, fmt.Errorf("matrixmarket: expected %d entries, got %d", nnz, read)
	}
	return m.Normalize(), nil
}

// scanErr maps a stopped Scanner to the error to report: its own error if it
// hit one, io.ErrUnexpectedEOF if the input simply ran out.
func scanErr(sc *bufio.Scanner) error {
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}
