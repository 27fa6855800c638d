package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/atof"
)

// The wire codec of the two vector endpoints. /spmv and /solve carry one
// float64 per matrix row in each direction, so the body is all the work the
// HTTP layer does; a reflecting decoder growing a slice by doubling costs more
// than the solve behind it. The schema is fixed — one number array and a few
// scalars — so the body is scanned through a fixed window straight into a
// vector of exactly N, and the response is streamed out of the same kind of
// window, both on up to GOMAXPROCS goroutines. Request memory is 8N plus
// 2·GOMAXPROCS+2 windows at most whatever the body's size. DESIGN.md §13
// ("Wire format") states the grammar, the float format and the pipeline.

// windowSize bounds both the read and the write side's buffering, and with it
// the longest single token (a key or a number literal) a request may carry.
const windowSize = 64 << 10

var (
	windowPool           = sync.Pool{New: func() any { return new([windowSize]byte) }}
	getWindow, putWindow = windowPool.Get, windowPool.Put // variables, as spawn, for tests to count
	spawn                = func(f func()) { go f() }      // starts a codec helper
	decBlockSize         = windowSize                     // the bytes a decode read takes; tests set it lower
)

// pipe runs a request's codec jobs, one per block, on GOMAXPROCS-1 helpers
// (from the first job with a successor on) and the handler, settling in order.
type pipe struct {
	work      chan func()
	wg        sync.WaitGroup
	queue     []*block // run and not yet settled, oldest first
	all, free []*[windowSize]byte
}

// block is a job's window, holding win[:n], and its first element's index; a
// decode block is at body offset base, cut after a comma, parsed to clean.
type block struct {
	win                      *[windowSize]byte
	n, off, cut, clean, base int
	done                     chan struct{} // closed when the job is done
}

func (p *pipe) window() (w *[windowSize]byte) {
	if n := len(p.free); n > 0 {
		w, p.free = p.free[n-1], p.free[:n-1]
		return w
	}
	p.all = append(p.all, getWindow().(*[windowSize]byte))
	return p.all[len(p.all)-1]
}

// run runs job on b, on a helper if more blocks follow and one is free, then
// settles to 2·GOMAXPROCS behind b, a job running and one waiting per goroutine.
func (p *pipe) run(b *block, job func(*block), more bool, each func(*block) bool) bool {
	procs := runtime.GOMAXPROCS(0)
	if more && p.work == nil && procs > 1 {
		p.work = make(chan func(), procs-1) // a job waiting for each helper, so none parks between jobs
		p.wg.Add(procs - 1)
		for range procs - 1 {
			spawn(func() {
				defer p.wg.Done()
				for f := range p.work {
					f()
				}
			})
		}
	}
	p.queue, b.done = append(p.queue, b), make(chan struct{})
	if f := func() { job(b); close(b.done) }; !more || len(p.work) == cap(p.work) {
		f()
	} else {
		p.work <- f
	}
	return p.settle(2*procs, each)
}

// settle hands the oldest blocks to each while more than ahead are queued,
// waiting for their jobs, and then while their jobs are done, keeping the
// newest unless ahead is 0; a block each refuses stays.
func (p *pipe) settle(ahead int, each func(*block) bool) bool {
	for ; len(p.queue) > min(ahead, 1); p.queue = p.queue[1:] {
		select {
		case <-p.queue[0].done:
		default:
			if len(p.queue) <= ahead {
				return true
			}
			<-p.queue[0].done
		}
		if !each(p.queue[0]) {
			return false
		}
		p.free = append(p.free, p.queue[0].win)
	}
	return true
}

// release ends the helpers, once their jobs are done, and returns p's windows.
func (p *pipe) release() {
	if p.work != nil {
		close(p.work)
		p.wg.Wait()
	}
	for _, w := range p.all {
		putWindow(w)
	}
}

// wireFields names the request keys of each operation. The positions are the
// schema: 0 the vector, 1 the "use the ones vector" flag, then (solve only)
// tol, max_iter, timeout_ms.
var wireFields = [...][]string{
	opSpMV:  {"x", "x_ones"},
	opSolve: {"b", "b_ones", "tol", "max_iter", "timeout_ms"},
}

// vectorRequest is a decoded /spmv or /solve body.
type vectorRequest struct {
	vec       []float64 // x or b; nil unless the key came with an array
	ones      bool
	tol       float64
	maxIter   int
	timeoutMS int
}

// The places where the scanner is stricter than encoding/json with
// DisallowUnknownFields, which it otherwise matches accept for accept and bit
// for bit (the fuzz targets hold it to that), and the bound the matrix gives.
const (
	msgDuplicateKey = "duplicate key"
	msgEscapedKey   = "escape in a key"
	msgTrailingData = "data after the closing }"
	msgTooMany      = "has more entries than the matrix has rows"
)

// scanner reads a body through one window. buf[pos:end] is unread; base is
// the body offset of buf[0], for error messages.
type scanner struct {
	r        io.Reader
	buf      []byte
	pos, end int
	base     int64
	rerr     error // what ended reading: io.EOF, the body cap, a transport error
	p        pipe
}

var errTokenTooLong = fmt.Errorf("a key or number longer than %d bytes", windowSize)

// fill slides the unread bytes to the front of the window and reads a block
// behind them, or what is left of the body, reporting whether any arrived:
// what ends the body comes with the bytes before it. A caller in the middle
// of a token leaves pos at the token's start, so the token stays in one piece.
func (s *scanner) fill() bool {
	if s.rerr != nil {
		return false
	}
	if s.pos > 0 {
		s.base += int64(s.pos)
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	}
	if s.end == len(s.buf) {
		s.rerr = errTokenTooLong
		return false
	}
	n, err := io.ReadFull(s.r, s.buf[s.end:min(len(s.buf), s.end+decBlockSize)])
	if s.end, s.rerr = s.end+n, err; err == io.ErrUnexpectedEOF {
		s.rerr = io.EOF
	}
	return n > 0
}

// token skips whitespace and returns the next byte without consuming it; 0
// at the end of the body, which no JSON position accepts.
func (s *scanner) token() byte {
	for {
		if s.pos = skipSpace(s.buf[:s.end], s.pos); s.pos < s.end {
			return s.buf[s.pos]
		}
		if !s.fill() {
			return 0
		}
	}
}

// keyText consumes a key's bytes up to a quote, a backslash or a control
// character and returns them, valid until the next scanner call.
func (s *scanner) keyText() []byte {
	i := 0 // past s.pos, which fill keeps at the key's start
	for {
		for t := s.buf[s.pos:s.end]; i < len(t) && t[i] >= 0x20 && t[i] != '"' && t[i] != '\\'; i++ {
		}
		if s.pos+i < s.end || !s.fill() {
			break
		}
	}
	tok := s.buf[s.pos : s.pos+i]
	s.pos += i
	return tok
}

// errorf is the decode failure: what stopped the read if something did (the
// body cap answers 413), else a 400 naming the offset.
func (s *scanner) errorf(format string, args ...any) error {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(s.rerr, &tooBig):
		return fmt.Errorf("%w: limit is %d bytes", ErrBodyTooLarge, tooBig.Limit)
	case s.rerr != nil && s.rerr != io.EOF:
		return BadRequestf("read body: %v", s.rerr)
	}
	return BadRequestf("decode body: offset %d: %s", s.base+int64(s.pos), fmt.Sprintf(format, args...))
}

// expect consumes c, the next byte after whitespace.
func (s *scanner) expect(c byte, where string) error {
	if got := s.token(); got != c {
		return s.errorf("want %q %s", c, where)
	}
	s.pos++
	return nil
}

// number consumes a number literal — checked and converted by atof.JSON in
// one pass straight out of the window — and returns its text and value. A
// null reads as absent (nil text), as encoding/json reads it into any scalar.
func (s *scanner) number() (text []byte, f float64, err error) {
	if s.token() == 'n' {
		return nil, 0, s.null()
	}
	for {
		f, n, err := atof.JSON(s.buf[s.pos:s.end])
		if s.pos+n == s.end && s.fill() {
			continue // the pass ran into the window's end: the literal may go on
		}
		if err == atof.ErrSyntax {
			return nil, 0, s.errorf("want a number")
		}
		text, s.pos = s.buf[s.pos:s.pos+n], s.pos+n
		if err != nil {
			return nil, 0, s.errorf("number %s does not fit a float64", text)
		}
		return text, f, nil
	}
}

// integer takes only what encoding/json takes into an int: digits, no
// fraction and no exponent.
func (s *scanner) integer(into *int) error {
	tok, _, err := s.number()
	if tok == nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return s.errorf("number %s is not an integer", tok)
	}
	*into = int(v)
	return nil
}

// literal consumes word if the body goes on with it. What follows the word
// is the caller's next token, as it is encoding/json's.
func (s *scanner) literal(word string) bool {
	for s.end-s.pos < len(word) && s.fill() {
	}
	if s.end-s.pos < len(word) || string(s.buf[s.pos:s.pos+len(word)]) != word {
		return false
	}
	s.pos += len(word)
	return true
}

func (s *scanner) null() error {
	if !s.literal("null") {
		return s.errorf("want a value")
	}
	return nil
}

func (s *scanner) boolean(into *bool) error {
	s.token()
	switch {
	case s.literal("true"):
		*into = true
	case s.literal("false"):
		*into = false
	case s.literal("null"):
	default:
		return s.errorf("want true or false")
	}
	return nil
}

// vector reads a number array into a slice allocated once at the matrix's n
// and refuses element n+1 when it shows up; a shorter array comes back short
// for the handler to name. null is the absent vector.
func (s *scanner) vector(name string, n int) ([]float64, error) {
	if s.token() == 'n' {
		return nil, s.null()
	}
	if err := s.expect('[', "or null"); err != nil {
		return nil, err
	}
	vec := make([]float64, 0, n)
	if s.token() == ']' {
		s.pos++
		return vec, nil
	}
	if s.rerr == nil { // more of the body than the window holds
		vec = s.blocks(vec)
	}
	for {
		if len(vec) == n {
			return nil, s.errorf("%s %s (%d)", name, msgTooMany, n)
		}
		_, f, err := s.number()
		if err != nil {
			return nil, err
		}
		vec = append(vec, f)
		switch s.token() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return vec, nil
		default:
			return nil, s.errorf("want , or ] in %s", name)
		}
	}
}

func skipSpace(t []byte, i int) int {
	for i < len(t) && (t[i] == ' ' || t[i] == '\t' || t[i] == '\r' || t[i] == '\n') {
		i++
	}
	return i
}

// stuck is a body that has ended: every read returns err.
type stuck struct{ err error }

func (e stuck) Read([]byte) (int, error) { return 0, e.err }

// blocks reads an open vector from its first element on in blocks parsed on
// s.p. At the first that did not parse cleanly, one with no comma, or the
// body's end, the serial scan takes over at its last clean comma, over the
// blocks read behind it, and vec comes back with the elements before that.
func (s *scanner) blocks(vec []float64) []float64 {
	full, src := vec[:cap(vec)], io.MultiReader(bytes.NewReader(s.buf[s.pos:s.end]), s.r)
	parse := func(b *block) { // whitespace, a number, whitespace, a comma, again
		t := b.win[:b.cut]
		for i, k := 0, b.off; k < len(full); k++ {
			i = skipSpace(t, i)
			f, m, err := atof.JSON(t[i:])
			if i = skipSpace(t, i+m); err != nil || i == len(t) || t[i] != ',' {
				return
			}
			full[k], i, b.clean = f, i+1, i+1
		}
	}
	parsed := func(b *block) bool { return b.clean == b.cut }
	for b := (&block{win: s.p.window(), base: int(s.base) + s.pos}); ; {
		m, err := io.ReadFull(src, b.win[b.n:decBlockSize])
		if b.n, s.rerr = b.n+m, err; err == io.ErrUnexpectedEOF {
			s.rerr = io.EOF
		}
		b.cut = bytes.LastIndexByte(b.win[:b.n], ',') + 1
		if more := b.cut > 0 && s.rerr == nil; !s.p.run(b, parse, more, parsed) || !more {
			break
		}
		next := &block{win: s.p.window(), base: b.base + b.cut, off: b.off + bytes.Count(b.win[:b.cut], []byte{','})}
		b, next.n = next, copy(next.win[:], b.win[b.cut:b.n])
	}
	s.p.settle(1, parsed) // the serial scan starts at the oldest block left
	q := s.p.queue
	if s.rerr != nil && len(q) > 1 { // fill reads it with the last block's bytes
		src, s.rerr = stuck{s.rerr}, nil
	}
	for i := len(q) - 1; i > 0; i-- { // past what q[i-1] carried over, once q[i] is off vec
		<-q[i].done
		src = io.MultiReader(bytes.NewReader(q[i].win[q[i-1].n-q[i-1].cut:q[i].n]), src)
	}
	s.r = src
	s.buf, s.pos, s.end, s.base = q[0].win[:], q[0].clean, q[0].n, int64(q[0].base)
	return vec[:q[0].off+bytes.Count(q[0].win[:q[0].clean], []byte{','})]
}

// key consumes a quoted key and returns its position in fields, matched as
// encoding/json matches struct tags (Unicode case folding).
func (s *scanner) key(fields []string) (int, error) {
	if err := s.expect('"', "to open a key"); err != nil {
		return 0, err
	}
	key := s.keyText()
	switch {
	case s.pos == s.end: // keyText stopped because reading did
		return 0, s.errorf("unterminated key")
	case s.buf[s.pos] == '\\':
		return 0, s.errorf("%s", msgEscapedKey)
	case s.buf[s.pos] != '"':
		return 0, s.errorf("control character in a key")
	}
	for i, name := range fields {
		if bytes.EqualFold(key, []byte(name)) {
			s.pos++
			return i, nil
		}
	}
	return 0, s.errorf("unknown field %q", key)
}

// decodeVectorRequest reads one /spmv or /solve body for a matrix of n rows.
func decodeVectorRequest(r io.Reader, op opKind, n int) (vectorRequest, error) {
	s := scanner{r: r}
	defer s.p.release()
	s.buf = s.p.window()[:]
	var req vectorRequest
	if err := s.object(wireFields[op], n, &req); err != nil {
		return vectorRequest{}, err
	}
	if s.token() != 0 || s.pos < s.end || s.rerr != io.EOF {
		return vectorRequest{}, s.errorf("%s", msgTrailingData)
	}
	return req, nil
}

func (s *scanner) object(fields []string, n int, req *vectorRequest) error {
	if s.token() == 'n' { // encoding/json reads a bare null as the empty request
		return s.null()
	}
	if err := s.expect('{', "to open the request"); err != nil {
		return err
	}
	if s.token() == '}' {
		s.pos++
		return nil
	}
	var seen uint
	for {
		f, err := s.key(fields)
		if err != nil {
			return err
		}
		if seen&(1<<f) != 0 {
			return s.errorf("%s %q", msgDuplicateKey, fields[f])
		}
		seen |= 1 << f
		if err := s.expect(':', "after a key"); err != nil {
			return err
		}
		switch f {
		case 0:
			req.vec, err = s.vector(fields[0], n)
		case 1:
			err = s.boolean(&req.ones)
		case 2:
			_, req.tol, err = s.number()
		case 3:
			err = s.integer(&req.maxIter)
		case 4:
			err = s.integer(&req.timeoutMS)
		}
		if err != nil {
			return err
		}
		switch s.token() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil
		default:
			return s.errorf("want , or } after a value")
		}
	}
}

const segFloats = 2048 // the floats of a response a window takes, 26 bytes each at most

// writeVectorResponse streams a 200 for out in segments formatted on a pipe,
// byte for byte what json.NewEncoder(w).Encode would write for the response
// struct. The outcome is finite (request.finish saw to that), so nothing can
// fail after the header but the connection.
func writeVectorResponse(w http.ResponseWriter, op opKind, out outcome) (err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	var p pipe
	defer p.release()
	format := func(b *block) { b.n = len(appendSegment(b.win[:0], op, out, b.off)) }
	write := func(b *block) bool { _, err = w.Write(b.win[:b.n]); return err == nil }
	for off := 0; off == 0 || off < len(out.y); off += segFloats {
		if !p.run(&block{win: p.window(), off: off}, format, off+segFloats < len(out.y), write) {
			return err
		}
	}
	p.settle(0, write)
	return err
}

// appendSegment appends the segment of out.y from off on: the opening before
// the first, and what follows the vector after the last.
func appendSegment(b []byte, op opKind, out outcome, off int) []byte {
	if off == 0 {
		b = append(b, [...]string{opSpMV: `{"y":[`, opSolve: `{"x":[`}[op]...)
	}
	end := min(off+segFloats, len(out.y))
	for i, f := range out.y[off:end] {
		if i+off > 0 {
			b = append(b, ',')
		}
		b = atof.AppendJSON(b, f)
	}
	if end < len(out.y) {
		return b
	}
	b = append(b, ']')
	if op == opSolve {
		b = append(b, `,"iterations":`...)
		b = strconv.AppendInt(b, int64(out.iterations), 10)
		b = append(b, `,"converged":`...)
		b = strconv.AppendBool(b, out.converged)
		b = append(b, `,"residual":`...)
		b = atof.AppendJSON(b, out.residual)
	}
	b = append(b, `,"batch_lanes":`...)
	b = strconv.AppendInt(b, int64(out.lanes), 10)
	return append(b, "}\n"...)
}
