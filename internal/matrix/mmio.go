package matrix

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/atof"
)

// Matrix Market exchange format support (the format the University of
// Florida collection distributes, which the paper's suite comes from).
// Supported object/format/field/symmetry combinations:
//
//	matrix coordinate real|integer|pattern general|symmetric|skew-symmetric
//
// Pattern matrices read with all values set to 1. Symmetric files load into
// lower-triangular symmetric COO storage, exactly as the UF collection stores
// them. Skew-symmetric files load the same way with COO.Skew set; their
// diagonal must be absent or explicitly zero (A = -Aᵀ forces a_ii = 0), and
// stray upper-triangle entries mirror down with flipped sign — the plain
// symmetric mirror would silently corrupt skew values.
//
// The reader works on blocks of bytes, not on lines: it takes mmBlockSize
// bytes from the stream at a time, cuts the block after its last newline and
// carries the unfinished line into the next, so a block is whole lines. The
// calling goroutine reads the banner and the size line, then reads blocks and
// parses them; up to GOMAXPROCS-1 helper goroutines, started only when more
// blocks follow, parse blocks beside it. A data line is read in one pass over
// the block's bytes, where it lies. The invariants:
//
//   - Bounded memory: beyond the COO the reader holds at most mmAhead+2 blocks
//     (those awaiting settling, the one just read, the one being filled); a
//     settled block's entries go into the COO and its buffers to the blocks
//     after it. The declared entry count sizes the COO only within what a
//     file's Stat size holds (four bytes a line; other streams grow it, to the
//     declared count once a quarter of it has arrived), and the declared
//     dimensions size nothing, so a lying size line costs little.
//   - The line limit: a line of mmMaxLine bytes or more is bufio.ErrTooLong,
//     the limit and the error of the bufio.Scanner reader this one replaced.
//   - The earliest error wins, byte for byte. A helper parses a block without
//     knowing its first line number or how many entries the size line still
//     allows; the caller settles blocks in file order, and a block that failed
//     or overran the declared count is parsed again with both known, which
//     gives the line-by-line reader's diagnostic, line number included. A
//     read error or an overlong line is reported after every line before it
//     has parsed cleanly.
//   - The input is untrusted: a final line with no newline and CRLF endings
//     parse; indices that overflow int, entries outside the declared
//     dimensions and data lines beyond the declared count are rejected.

const (
	mmMaxLine = 1 << 20 // a line, its newline included, must be shorter than this
	mmAhead   = 4       // blocks that may await settling before the caller waits for the oldest
)

// mmBlockSize is how many bytes the reader takes from the stream at a time: a
// variable only so that the tests can put a block edge inside every line (a
// buffer smaller than a line grows, up to mmMaxLine).
var mmBlockSize = 1 << 20

// mmReader is the serial side of one read: the stream cut into blocks, and
// the line-by-line scan of the banner, the comments and the size line.
type mmReader struct {
	r      io.Reader
	buf    []byte // the block being filled; buf[:n] is the line carried over
	n      int
	err    error      // why the stream ended: io.EOF, a read error or bufio.ErrTooLong
	text   []byte     // rest of the current block, while scanning line by line
	block  []byte     // the current block: the buffer text lies in
	lineno int        // lines consumed so far
	spare  []*mmBlock // settled blocks: buffers for next to fill, triplets to refill
}

// next returns the next block: whole lines, the last of them unterminated
// only at the end of the stream. Once rd.err is set the block returned, if
// any, is the last one, and later calls return nil.
func (rd *mmReader) next() []byte {
	if rd.err != nil {
		return nil
	}
	if rd.buf == nil {
		rd.buf = rd.fresh(0)
	}
	for {
		for empty := 0; rd.n < len(rd.buf) && rd.err == nil; {
			m, err := rd.r.Read(rd.buf[rd.n:])
			switch {
			case m < 0 || m > len(rd.buf)-rd.n:
				rd.err = bufio.ErrBadReadCount
			case err != nil:
				rd.n, rd.err = rd.n+m, err
			case m > 0:
				rd.n, empty = rd.n+m, 0
			default:
				if empty++; empty > 100 {
					rd.err = io.ErrNoProgress
				}
			}
		}
		if rd.err != nil { // the stream is over: what is buffered is the last block
			last := rd.buf[:rd.n]
			rd.buf, rd.n = nil, 0
			if len(last) == 0 {
				return nil
			}
			return last
		}
		if i := bytes.LastIndexByte(rd.buf, '\n'); i >= 0 {
			block, carry := rd.buf[:i+1], rd.buf[i+1:]
			rd.buf = rd.fresh(len(carry))
			rd.n = copy(rd.buf, carry)
			return block
		}
		// One line fills the buffer: past the limit, or a small buffer to grow.
		if len(rd.buf) >= mmMaxLine {
			rd.err = bufio.ErrTooLong
			return nil
		}
		grown := make([]byte, min(2*len(rd.buf), mmMaxLine))
		copy(grown, rd.buf)
		rd.buf = grown
	}
}

// fresh returns a buffer for the next block, one that holds carry bytes or
// mmBlockSize, whichever is more: the spare block's on top, if as large.
func (rd *mmReader) fresh(carry int) []byte {
	n := max(mmBlockSize, carry)
	if k := len(rd.spare) - 1; k >= 0 && cap(rd.spare[k].buf) >= n {
		b := rd.spare[k].buf
		rd.spare[k].buf = nil
		return b[:n]
	}
	return make([]byte, n)
}

// failure is the error that ended the stream, nil for a clean end.
func (rd *mmReader) failure() error {
	if rd.err == io.EOF {
		return nil
	}
	return rd.err
}

// line returns the next line of the stream. When there is none the error
// says, after what, why: the stream's failure, or io.ErrUnexpectedEOF if it
// simply ran out.
func (rd *mmReader) line(what string) (line string, err error) {
	for len(rd.text) == 0 {
		if rd.text = rd.next(); rd.text == nil {
			if err = rd.failure(); err == nil {
				err = io.ErrUnexpectedEOF
			}
			return "", fmt.Errorf("matrixmarket: %s: %w", what, err)
		}
		rd.block = rd.text
	}
	var l []byte
	l, rd.text = cutLine(rd.text)
	rd.lineno++
	return string(l), nil
}

// cutLine splits b after its first line; the newline belongs to neither part.
func cutLine(b []byte) (line, rest []byte) {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i], b[i+1:]
	}
	return b, nil
}

// mmFormat is what the banner and the size line declare: everything a data
// line is checked against. The parsing goroutines share it read-only.
type mmFormat struct {
	rows, cols, nnz          int
	pattern, symmetric, skew bool
}

// header reads the banner line, skips comments and reads the size line.
func (rd *mmReader) header() (*mmFormat, error) {
	banner, err := rd.line("reading header")
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(strings.ToLower(banner))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("matrixmarket: bad header %q", strings.TrimSpace(banner))
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

	var sizeLine string
	for sizeLine == "" || sizeLine[0] == '%' {
		line, err := rd.line("missing size line")
		if err != nil {
			return nil, err
		}
		sizeLine = strings.TrimSpace(line)
	}
	f := strings.Fields(sizeLine)
	var size [3]int
	ok := len(f) == 3
	for i := 0; ok && i < 3; i++ {
		size[i], err = strconv.Atoi(f[i])
		ok = err == nil && size[i] >= 0
	}
	if !ok {
		return nil, fmt.Errorf("matrixmarket: line %d: bad size line %q", rd.lineno, sizeLine)
	}
	rows, cols := size[0], size[1]
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		// COO stores coordinates as int32; larger declared dims would
		// silently truncate every index.
		return nil, fmt.Errorf("matrixmarket: line %d: dimensions %dx%d exceed %d", rd.lineno, rows, cols, math.MaxInt32)
	}
	if symmetry != "general" && rows != cols {
		return nil, fmt.Errorf("matrixmarket: %s %dx%d matrix is not square", symmetry, rows, cols)
	}
	return &mmFormat{
		rows: rows, cols: cols, nnz: size[2],
		pattern: field == "pattern", symmetric: symmetry != "general", skew: symmetry == "skew-symmetric",
	}, nil
}

// mmBlock is one block of data lines and the entries parsed from it.
type mmBlock struct {
	text   []byte
	buf    []byte        // the buffer text lies in, refilled once the block settles
	done   chan struct{} // closed by the helper that parsed the block; nil if the caller did
	ri, ci []int32
	v      []float64
	lines  int
	err    error
}

// parse reads the entries of b.text into b. firstLine is the number of lines
// before the block and room the number of entries the size line still allows;
// a helper knows neither and passes 0 and math.MaxInt.
func (p *mmFormat) parse(b *mmBlock, firstLine, room int) {
	text := b.text
	if n := bytes.Count(text, []byte{'\n'}) + 1; cap(b.v) < n {
		n += n / 8 // room for the longer blocks that may refill these
		b.ri, b.ci, b.v = make([]int32, 0, n), make([]int32, 0, n), make([]float64, 0, n)
	}
	ri, ci, vv := b.ri[:0], b.ci[:0], b.v[:0]
	lineno := firstLine
	b.err = nil
	for len(text) > 0 {
		lineno++
		r1, c1, v, n, plain := mmSplit(text, !p.pattern)
		var t []byte
		if plain {
			text = text[n:]
		} else {
			t, text = cutLine(text)
			if t = bytes.TrimSpace(t); len(t) == 0 || t[0] == '%' {
				continue
			}
		}
		if len(vv) == room {
			// More data lines than the size line declares: for symmetric
			// files the mirrored extras would silently double entries, so
			// reject rather than ignore.
			b.err = fmt.Errorf("matrixmarket: line %d: data after the %d declared entries", lineno, p.nnz)
			break
		}
		r0, c0, v, err := p.entry(t, r1, c1, v, lineno)
		if err != nil {
			b.err = err
			break
		}
		if p.symmetric && c0 > r0 {
			// UF symmetric files store the lower triangle, but be liberal:
			// mirror stray upper entries down. For skew files the mirror is
			// the negation — copying the value unchanged would silently
			// corrupt it.
			r0, c0 = c0, r0
			if p.skew {
				v = -v
			}
		}
		ri, ci, vv = append(ri, int32(r0)), append(ci, int32(c0)), append(vv, v)
	}
	b.ri, b.ci, b.v, b.lines = ri, ci, vv, lineno-firstLine
}

// entry checks a data line and returns its 0-based coordinates and its value:
// r1, c1 and v as mmSplit read them, or, if t is not nil, read from the
// trimmed line t, which mmSplit refused.
func (p *mmFormat) entry(t []byte, r1, c1 int, v float64, lineno int) (r0, c0 int, _ float64, err error) {
	if t != nil {
		// Signed or long indices, a value outside JSON's number form, white
		// space beyond ASCII, a fault: split and convert as the line-oriented
		// reader did. Rare, so it may allocate.
		f := bytes.Fields(t)
		if len(f) < 2 || (len(f) < 3 && !p.pattern) {
			return 0, 0, 0, fmt.Errorf("matrixmarket: line %d: short line %q", lineno, t)
		}
		var err1, err2 error
		r1, err1 = strconv.Atoi(string(f[0]))
		c1, err2 = strconv.Atoi(string(f[1]))
		if err1 != nil || err2 != nil {
			return 0, 0, 0, fmt.Errorf("matrixmarket: line %d: bad indices in %q", lineno, t)
		}
		if !p.pattern {
			v, err = atof.Parse(f[2])
		}
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("matrixmarket: line %d: bad value in %q", lineno, t)
	}
	if p.pattern {
		v = 1.0
	}
	r0, c0 = r1-1, c1-1 // Matrix Market is 1-based
	if r0 < 0 || r0 >= p.rows || c0 < 0 || c0 >= p.cols {
		return 0, 0, 0, fmt.Errorf("matrixmarket: line %d: entry (%d,%d) outside %dx%d", lineno, r1, c1, p.rows, p.cols)
	}
	if p.skew && r0 == c0 && v != 0 {
		// A = -Aᵀ forces a zero diagonal; a nonzero diagonal entry means
		// the file is mislabeled, not merely untidy.
		return 0, 0, 0, fmt.Errorf("matrixmarket: line %d: nonzero diagonal entry (%d,%d)=%g in skew-symmetric matrix", lineno, r1, c1, v)
	}
	return r0, c0, v, nil
}

// mmSplit reads the plain form of a data line in one pass over the untrimmed
// line at the start of t: two indices of one to nine decimal digits and, if
// wantValue, a value, apart and around them only blanks (ASCII white space
// but the newline) — fields bytes.Fields and strconv.Atoi would read the same
// way. The value is converted where it starts, by atof.JSON. n is the line's
// length, its newline included. plain=false means the line is anything else:
// blank, a comment, a form only bytes.Fields reads, or a fault.
func mmSplit(t []byte, wantValue bool) (r1, c1 int, v float64, n int, plain bool) {
	r1, i, ok := mmIndex(t, mmSkip(t, 0))
	if !ok {
		return
	}
	if c1, i, ok = mmIndex(t, i); !ok {
		return
	}
	if wantValue {
		f, m, err := atof.JSON(t[i:])
		if err != nil {
			return
		}
		v, i = f, mmSkip(t, i+m)
	}
	if i < len(t) && t[i] != '\n' {
		return
	}
	return r1, c1, v, min(i+1, len(t)), true
}

// mmIndex reads an index of one to nine decimal digits at t[i:] and the blanks
// behind it; ok is false unless a blank, the newline or the end of t follows
// the digits.
func mmIndex(t []byte, i int) (x, next int, ok bool) {
	start := i
	for ; i < len(t) && t[i]-'0' <= 9; i++ {
		x = x*10 + int(t[i]-'0')
	}
	d := i - start
	next = mmSkip(t, i)
	return x, next, d > 0 && d <= 9 && (next > i || next == len(t) || t[next] == '\n')
}

// mmSkip returns the index of the first byte from t[i] on that is not a
// blank: \t \v \f \r or a space. It never passes a newline.
func mmSkip(t []byte, i int) int {
	for i < len(t) && (t[i] == ' ' || t[i] == '\t' || t[i]-'\v' < 3) {
		i++
	}
	return i
}

// entries reads and parses every block after the size line and appends their
// entries to m in file order. The caller reads, and parses a block itself
// when that block is the last (so a one-block file wakes nobody) or when
// GOMAXPROCS-1 blocks are already out with helper goroutines.
func (rd *mmReader) entries(p *mmFormat, m *COO) error {
	var (
		pending []*mmBlock // read and not yet settled, in file order
		room    = p.nnz
		out     atomic.Int32 // blocks helpers are parsing right now
	)
	defer func() { // on an early return, let the helpers finish
		for _, b := range pending {
			if b.done != nil {
				<-b.done
			}
		}
	}()
	// settle numbers and counts parsed blocks in file order and moves their
	// entries into m, waiting for a helper only while more than ahead blocks
	// are unsettled.
	settle := func(ahead int) error {
		for len(pending) > 0 {
			b := pending[0]
			if b.done != nil {
				if len(pending) > ahead {
					<-b.done
				}
				select {
				case <-b.done:
				default:
					return nil
				}
			}
			if b.err != nil || len(b.v) > room {
				p.parse(b, rd.lineno, room)
				return b.err
			}
			rd.lineno += b.lines
			room -= len(b.v)
			if k := len(m.Val) + len(b.v); k > cap(m.Val) {
				// A stream: twice the room, and the whole declared count once
				// a quarter of it has arrived, so a lying count costs at most
				// four times what the stream has proved.
				if 4*k >= p.nnz {
					k = p.nnz
				} else {
					k = max(k, 2*len(m.Val))
				}
				m.RowIdx, m.ColIdx, m.Val = regrown(m.RowIdx, k), regrown(m.ColIdx, k), regrown(m.Val, k)
			}
			m.RowIdx, m.ColIdx, m.Val = append(m.RowIdx, b.ri...), append(m.ColIdx, b.ci...), append(m.Val, b.v...)
			pending, rd.spare = pending[1:], append(rd.spare, b)
		}
		return nil
	}

	text, buf := rd.text, rd.block // what the size line's block holds after it
	for {
		if len(text) == 0 {
			if text = rd.next(); text == nil {
				break
			}
			buf = text
		}
		b := &mmBlock{}
		if k := len(rd.spare); k > 0 { // the block whose buffer next just took, if it did
			b, rd.spare = rd.spare[k-1], rd.spare[:k-1]
		}
		b.text, b.buf, b.done, text = text, buf[:cap(buf)], nil, nil
		pending = append(pending, b)
		if rd.err == nil && int(out.Load()) < runtime.GOMAXPROCS(0)-1 { // more follows: share the work
			out.Add(1)
			b.done = make(chan struct{})
			go func() {
				p.parse(b, 0, math.MaxInt)
				out.Add(-1)
				close(b.done)
			}()
		} else {
			p.parse(b, 0, math.MaxInt)
		}
		if err := settle(mmAhead); err != nil {
			return err
		}
	}
	if err := settle(0); err != nil {
		return err
	}
	if err := rd.failure(); err != nil {
		return fmt.Errorf("matrixmarket: line %d: %w", rd.lineno+1, err)
	}
	if room != 0 {
		return fmt.Errorf("matrixmarket: expected %d entries, got %d", p.nnz, p.nnz-room)
	}
	return nil
}

// regrown returns s moved into a new array of capacity k. A make and a copy
// allocate the same bytes in every build mode; slices.Grow's append of a make
// also allocates the make under -race.
func regrown[E any](s []E, k int) []E { return append(make([]E, 0, k), s...) }

// ReadMatrixMarket parses a Matrix Market stream into a normalized COO. The
// input is untrusted; the notes at the top of this file say what is rejected
// and what bounds the memory.
func ReadMatrixMarket(r io.Reader) (*COO, error) {
	rd := &mmReader{r: r}
	p, err := rd.header()
	if err != nil {
		return nil, err
	}
	var size int64 // an os.File's length: the entries it can hold get their room at once
	if f, ok := r.(*os.File); ok {
		if fi, err := f.Stat(); err == nil {
			size = fi.Size()
		}
	}
	m := NewCOO(p.rows, p.cols, int(min(int64(p.nnz), (size+1)/4)))
	m.Symmetric, m.Skew = p.symmetric, p.skew
	if err := rd.entries(p, m); err != nil {
		return nil, err
	}
	return m.Normalize(), nil
}

// WriteMatrixMarket writes m in Matrix Market coordinate real format,
// using the symmetric (or skew-symmetric) qualifier for lower-triangular
// symmetric storage, so read→write→read round-trips the qualifier exactly.
// An entry line is what fmt prints for "%d %d %.17g\n".
func WriteMatrixMarket(w io.Writer, m *COO) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	sym := "general"
	if m.Symmetric {
		sym = "symmetric"
		if m.Skew {
			sym = "skew-symmetric"
		}
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real %s\n%d %d %d\n", sym, m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	line := make([]byte, 0, 64)
	for k, v := range m.Val {
		line = strconv.AppendInt(line[:0], int64(m.RowIdx[k])+1, 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(m.ColIdx[k])+1, 10)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, v, 'g', 17, 64)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMatrixMarketFile loads a .mtx file from disk.
func ReadMatrixMarketFile(path string) (*COO, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := ReadMatrixMarket(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// WriteMatrixMarketFile saves m as a .mtx file.
func WriteMatrixMarketFile(path string, m *COO) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteMatrixMarket(f, m); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
