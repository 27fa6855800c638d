package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The wire codec of the two vector endpoints. /spmv and /solve carry one
// float64 per matrix row in each direction, so the body is all the work the
// HTTP layer does; a reflecting decoder growing a slice by doubling costs more
// than the solve behind it. The schema is fixed — one number array and a few
// scalars — so the body is scanned through a fixed window straight into a
// vector of exactly N, and the response is streamed out of the same kind of
// window. Request memory is 8N plus one window whatever the body's size.
// DESIGN.md §13 ("Wire format") states the grammar and the float format.

// windowSize bounds both the read and the write side's buffering, and with it
// the longest single token (a key or a number literal) a request may carry.
const windowSize = 64 << 10

var windowPool = sync.Pool{New: func() any { return new([windowSize]byte) }}

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

// Byte classes for scanner.span.
const (
	isSpace  uint8 = 1 << iota // JSON whitespace
	inNumber                   // any byte a number literal can contain
	inKey                      // any byte a string holds unescaped
)

var class = func() (t [256]uint8) {
	for c := 0x20; c < 256; c++ {
		t[c] = inKey
	}
	t['"'], t['\\'] = 0, 0
	for _, c := range " \t\r\n" {
		t[c] |= isSpace
	}
	for _, c := range "0123456789+-.eE" {
		t[c] |= inNumber
	}
	return t
}()

// scanner reads a body through one window. buf[pos:end] is unread; base is
// the body offset of buf[0], for error messages.
type scanner struct {
	r        io.Reader
	buf      []byte
	pos, end int
	base     int64
	rerr     error // what ended reading: io.EOF, the body cap, a transport error
}

var errTokenTooLong = fmt.Errorf("a key or number longer than %d bytes", windowSize)

// fill slides the unread bytes to the front of the window and reads behind
// them, reporting whether any arrived. A caller in the middle of a token
// leaves pos at the token's start, so the token stays in one piece.
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
	for {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		s.rerr = err
		if n > 0 || err != nil {
			return n > 0
		}
	}
}

// token skips whitespace and returns the next byte without consuming it; 0
// at the end of the body, which no JSON position accepts.
func (s *scanner) token() byte {
	for {
		if s.pos == s.end && !s.fill() {
			return 0
		}
		c := s.buf[s.pos]
		if class[c]&isSpace == 0 {
			return c
		}
		s.pos++
	}
}

// span consumes the longest run of bytes in the given class and returns it,
// valid until the next scanner call.
func (s *scanner) span(in uint8) []byte {
	i := s.pos
	for {
		for i < s.end && class[s.buf[i]]&in != 0 {
			i++
		}
		if i < s.end {
			break
		}
		i -= s.pos // fill may move the run to the front of the window
		more := s.fill()
		i += s.pos
		if !more {
			break
		}
	}
	tok := s.buf[s.pos:i]
	s.pos = i
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

// validNumber reports whether b is exactly one JSON number literal:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(b []byte) bool {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch j := digits(i); {
	case j == i, b[i] == '0' && j > i+1:
		return false
	default:
		i = j
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return false
		}
		i = j
	}
	return i == len(b)
}

// number consumes a number literal and returns its text. A null reads as
// absent (ok false), as encoding/json reads it into any scalar.
func (s *scanner) number() (text []byte, ok bool, err error) {
	if s.token() == 'n' {
		return nil, false, s.null()
	}
	tok := s.span(inNumber)
	if !validNumber(tok) {
		s.pos -= len(tok)
		return nil, false, s.errorf("want a number")
	}
	return tok, true, nil
}

func (s *scanner) float() (float64, error) {
	tok, ok, err := s.number()
	if !ok {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, s.errorf("number %s does not fit a float64", tok)
	}
	return f, nil
}

// integer takes only what encoding/json takes into an int: digits, no
// fraction and no exponent.
func (s *scanner) integer(into *int) error {
	tok, ok, err := s.number()
	if !ok {
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
	for {
		if len(vec) == n {
			return nil, s.errorf("%s %s (%d)", name, msgTooMany, n)
		}
		f, err := s.float()
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

// key consumes a quoted key and returns its position in fields, matched as
// encoding/json matches struct tags (Unicode case folding).
func (s *scanner) key(fields []string) (int, error) {
	if err := s.expect('"', "to open a key"); err != nil {
		return 0, err
	}
	key := s.span(inKey)
	switch {
	case s.pos == s.end: // span stopped because reading did
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
	win := windowPool.Get().(*[windowSize]byte)
	defer windowPool.Put(win)
	s := scanner{r: r, buf: win[:]}
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
			req.tol, err = s.float()
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

// appendFloat writes f as encoding/json does: shortest digits that round-trip,
// positional between 1e-6 and 1e21 and exponent form outside, with a
// two-digit negative exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// writeVectorResponse streams a 200 for out, byte for byte what
// json.NewEncoder(w).Encode would write for the response struct. The outcome
// is finite (request.finish saw to that), so nothing can fail after the
// header but the connection.
func writeVectorResponse(w http.ResponseWriter, op opKind, out outcome) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	win := windowPool.Get().(*[windowSize]byte)
	defer windowPool.Put(win)
	const room = 256 // one float and a separator, or everything behind the vector
	b := win[:0]
	if op == opSpMV {
		b = append(b, `{"y":[`...)
	} else {
		b = append(b, `{"x":[`...)
	}
	for i, f := range out.y {
		if len(b) > windowSize-room {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, f)
	}
	b = append(b, ']')
	if op == opSolve {
		b = append(b, `,"iterations":`...)
		b = strconv.AppendInt(b, int64(out.iterations), 10)
		b = append(b, `,"converged":`...)
		b = strconv.AppendBool(b, out.converged)
		b = append(b, `,"residual":`...)
		b = appendFloat(b, out.residual)
	}
	b = append(b, `,"batch_lanes":`...)
	b = strconv.AppendInt(b, int64(out.lanes), 10)
	b = append(b, "}\n"...)
	_, err := w.Write(b)
	return err
}
