package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/blocks"
)

// The streamed response is byte for byte what encoding/json writes for the
// response structs — which is also what keeps a client's `"batch_lanes":`
// byte search and the smoke scripts' jq working.
func TestWriterByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]float64, 20000) // several windows' worth
	for i := range random {
		random[i] = math.Float64frombits(rng.Uint64())
		if math.IsNaN(random[i]) || math.IsInf(random[i], 0) {
			random[i] = rng.NormFloat64()
		}
	}
	vectors := map[string][]float64{
		"empty":    {},
		"one":      {1},
		"zeros":    {0, math.Copysign(0, -1)},
		"switches": {1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 9.99999999e20, -1e-7, -1e21},
		"extremes": {5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308},
		"integers": {1, -1, 2, 10, 123456789, 1 << 53, -(1 << 62)},
		"decimals": {0.1, 0.2, 0.30000000000000004, 1.0 / 3, 2.5e-9, 6.02214076e23},
		"random":   random,
	}
	for name, v := range vectors {
		for _, out := range []outcome{
			{y: v, lanes: 1},
			{y: v, lanes: 8, iterations: 123456, converged: true, residual: 3.25e-11},
		} {
			for op, reference := range map[opKind]any{
				opSpMV:  spmvResponse{Y: out.y, BatchLanes: out.lanes},
				opSolve: solveResponse{X: out.y, Iterations: out.iterations, Converged: out.converged, Residual: out.residual, BatchLanes: out.lanes},
			} {
				want, err := json.Marshal(reference)
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				if err := writeVectorResponse(rec, op, out); err != nil {
					t.Fatal(err)
				}
				if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
					t.Errorf("%s: %v response differs from encoding/json:\n got %.120q\nwant %.120q", name, op, got, want)
				}
				if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
					t.Errorf("%s: status %d, content type %q", name, rec.Code, rec.Header().Get("Content-Type"))
				}
			}
		}
	}
}

// jsonReference decodes a body the way the handlers did before the scanner:
// encoding/json into the tagged struct, unknown fields refused, whatever
// follows the first value ignored. end is the offset just behind that value.
func jsonReference(op opKind, data []byte) (req vectorRequest, end int64, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if op == opSpMV {
		var v spmvRequest
		err = dec.Decode(&v)
		req = vectorRequest{vec: v.X, ones: v.XOnes}
	} else {
		var v solveRequest
		err = dec.Decode(&v)
		req = vectorRequest{vec: v.B, ones: v.BOnes, tol: v.Tol, maxIter: v.MaxIter, timeoutMS: v.TimeoutMS}
	}
	return req, dec.InputOffset(), err
}

// hasDuplicateKey walks the top-level object with encoding/json's tokenizer
// and reports whether two keys name the same field.
func hasDuplicateKey(data []byte, fields []string) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return false
	}
	seen := make([]bool, len(fields))
	for dec.More() {
		tok, err := dec.Token()
		key, ok := tok.(string)
		var value json.RawMessage
		if err != nil || !ok || dec.Decode(&value) != nil {
			return false
		}
		for i, name := range fields {
			if strings.EqualFold(key, name) {
				if seen[i] {
					return true
				}
				seen[i] = true
			}
		}
	}
	return false
}

func sameBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstJSON holds the scanner to encoding/json on one body, for a
// matrix of fuzzRows rows: same accept or reject and bit-equal fields, except
// where the scanner is stricter on purpose — a duplicate key, an escape in a
// key, data after the closing brace, a vector longer than the matrix — and
// then the stricter rule must really apply to the body.
const fuzzRows = 8

func checkAgainstJSON(t *testing.T, op opKind, data []byte) {
	if len(data) > windowSize {
		t.Skip("a single token may outgrow the window")
	}
	got, err := decodeVectorRequest(bytes.NewReader(data), op, fuzzRows)
	want, end, jerr := jsonReference(op, data)
	switch {
	case jerr != nil:
		if err == nil {
			t.Fatalf("scanner accepts %q as %+v; encoding/json refuses it: %v", data, got, jerr)
		}
	case err == nil:
		if !sameBits(got.vec, want.vec) || math.Float64bits(got.tol) != math.Float64bits(want.tol) ||
			got.ones != want.ones || got.maxIter != want.maxIter || got.timeoutMS != want.timeoutMS {
			t.Fatalf("body %q:\n got %+v\nwant %+v", data, got, want)
		}
	default:
		if status, _ := StatusFor(err); status != http.StatusBadRequest {
			t.Fatalf("body %q refused with status %d: %v", data, status, err)
		}
		duplicate := hasDuplicateKey(data, wireFields[op])
		var applies bool
		switch msg := err.Error(); {
		case strings.Contains(msg, msgDuplicateKey):
			applies = duplicate
		case strings.Contains(msg, msgEscapedKey):
			applies = bytes.IndexByte(data[:end], '\\') >= 0
		case strings.Contains(msg, msgTrailingData):
			applies = len(bytes.TrimLeft(data[end:], " \t\r\n")) > 0
		case strings.Contains(msg, msgTooMany):
			// encoding/json keeps the last of two vectors; the long one may be the first.
			applies = len(want.vec) > fuzzRows || duplicate
		}
		if !applies {
			t.Fatalf("scanner refuses %q (%v); encoding/json reads it as %+v", data, err, want)
		}
	}
}

var fuzzSeeds = []string{
	`{"b":[1,2.5,-3e-7,0,-0,1e21,5e-324,1.7976931348623157e308],"tol":1e-9,"max_iter":50,"timeout_ms":2000}`,
	`{"b_ones":true}`, `{"x_ones":true}`, `{"x":[1,2,3]}`, `{}`, `null`, ` { "b" : [ ] } `,
	`{"b":null,"b_ones":null,"tol":null,"max_iter":null}`, `{"b":[null,1]}`,
	`{"B":[1],"TOL":2,"Max_Iter":3}`, `{"b_oneſ":true}`, `{"x_oneſ":true}`,
	`{"b":[1],"b":[2]}`, `{"b":[1],"B":[2]}`, `{"\u0062":[1]}`, `{"b_ones":true}x`, `{"b_ones":true} {}`,
	`{"b":[1,2,3,4,5,6,7,8,9]}`, `{"b":[1,2,3,4,5,6,7,8,9],"b":[1]}`,
	`{"b":[01]}`, `{"b":[1.]}`, `{"b":[.5]}`, `{"b":[+1]}`, `{"b":[1e]}`, `{"b":[1e+]}`, `{"b":[-]}`, `{"b":[0x10]}`,
	`{"b":[1e999]}`, `{"b":[1e-999]}`, `{"b":[NaN]}`, `{"b":[Infinity]}`, `{"b":[1,]}`, `{"b":[,1]}`, `{"b":[1 2]}`,
	`{"max_iter":1.0}`, `{"max_iter":1e2}`, `{"max_iter":-0}`, `{"max_iter":99999999999999999999}`, `{"tol":"1"}`,
	`{"b_ones":1}`, `{"b_ones":"true"}`, `{"b_ones":truex}`, `{"b_ones":tru}`, `{"b":3}`, `{"b":[[1]]}`, `{"b":{}}`,
	`{"bogus":1}`, `{"b_ones":true,}`, `{,}`, `{"b_ones" true}`, `{"b_ones":true`, `{"b":[1`, `{"b`, `[1]`, `3`, `"x"`, ``,
	"{\"b\x01\":1}", "{\"b\xff\":1}", "\ufeff{}", "{\"b_ones\":true}\x00",
}

func FuzzDecodeSolve(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstJSON(t, opSolve, data) })
}

func FuzzDecodeSpMV(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstJSON(t, opSpMV, data) })
}

// withDecBlockSize runs f with blocks of n bytes, clamped to 1 .. windowSize.
func withDecBlockSize(n int, f func()) {
	defer func(old int) { decBlockSize = old }(decBlockSize)
	decBlockSize = min(max(n, 1), windowSize)
	f()
}

// FuzzDecodeBlocks holds the block path to encoding/json with the block size
// a fuzz input, so that block edges fall inside the fuzzed bytes, and to the
// same body read as one block: value, error text and offset alike.
func FuzzDecodeBlocks(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s), uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, bs uint8) {
		for _, op := range []opKind{opSolve, opSpMV} {
			whole, werr := decodeVectorRequest(bytes.NewReader(data), op, fuzzRows)
			withDecBlockSize(int(bs)+1, func() {
				checkAgainstJSON(t, op, data)
				got, err := decodeVectorRequest(bytes.NewReader(data), op, fuzzRows)
				if fmt.Sprint(err) != fmt.Sprint(werr) || !sameBits(got.vec, whole.vec) || math.Float64bits(got.tol) != math.Float64bits(whole.tol) {
					t.Fatalf("%v body %q in %d-byte blocks: %+v, %v; in one block: %+v, %v", op, data, int(bs)+1, got, err, whole, werr)
				}
			})
		}
	})
}

// A token that straddles the end of the 64 KiB window — a number, a key, a
// literal — decodes the same at every offset the boundary can cut it, and so
// does a body that arrives one byte per read.
func TestTokensSplitAcrossTheWindow(t *testing.T) {
	want := vectorRequest{vec: []float64{-1.2345678901234567e-100, 2}, ones: true, timeoutMS: 1234567}
	for _, c := range []struct{ before, token, after string }{
		{`"b":[`, `-1.2345678901234567e-100`, `,2],"b_ones":true,"timeout_ms":1234567}`},
		{`"b":[-1.2345678901234567e-100,2],`, `"timeout_ms"`, `:1234567,"b_ones":true}`},
		{`"timeout_ms":1234567,"b":[-1.2345678901234567e-100,2],"b_ones":`, `true`, `}`},
	} {
		for cut := 0; cut <= len(c.token); cut++ {
			pad := windowSize - cut - len(c.before) - 1
			body := "{" + strings.Repeat(" ", pad) + c.before + c.token + c.after
			got, err := decodeVectorRequest(strings.NewReader(body), opSolve, 2)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cut after %d bytes: got %+v, %v", c.token, cut, got, err)
			}
		}
	}
	body := `{"timeout_ms":1234567,"b":[-1.2345678901234567e-100,2],"b_ones":true}`
	got, err := decodeVectorRequest(iotest.OneByteReader(strings.NewReader(body)), opSolve, 2)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("one byte per read: got %+v, %v", got, err)
	}
	// The number again as the second element, with a block edge at every
	// byte of it: the first block ends inside it and carries it over. A
	// block takes a window beside the scanner's, so the count shows the
	// vector went through the block path.
	var taken int
	defer func(g func() any) { getWindow = g }(getWindow)
	getWindow = func() any { taken++; return windowPool.Get() }
	for size := 1; size <= len(`2, -1.2345678901234567e-100,`); size++ {
		withDecBlockSize(size, func() {
			body := `{"b_ones":true,"b":[2, -1.2345678901234567e-100,2],"timeout_ms":1234567}`
			taken = 0
			got, err := decodeVectorRequest(strings.NewReader(body), opSolve, 3)
			if want := []float64{2, -1.2345678901234567e-100, 2}; err != nil || !reflect.DeepEqual(got.vec, want) || taken < 2 {
				t.Fatalf("%d-byte blocks: got %+v, %v, %d windows taken", size, got, err, taken)
			}
		})
	}
	long := `{"b":[0.` + strings.Repeat("0", windowSize) + `1]}`
	if _, err := decodeVectorRequest(strings.NewReader(long), opSolve, 2); !IsBadRequest(err) {
		t.Fatalf("a number longer than the window: err = %v, want a bad request", err)
	}
}

// hangUp is a response writer whose client goes away after the first write.
type hangUp struct {
	discardResponse
	writes int
}

func (h *hangUp) Write(p []byte) (int, error) {
	if h.writes++; h.writes > 1 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

// hiccup is a body whose transport fails once, after head, and then reads
// on as if nothing happened: an error that only the first read reports.
type hiccup struct {
	head, tail []byte
	failed     bool
}

func (h *hiccup) Read(p []byte) (int, error) {
	switch {
	case len(h.head) > 0:
		n := copy(p, h.head)
		h.head = h.head[n:]
		return n, nil
	case !h.failed:
		h.failed = true
		return 0, io.ErrClosedPipe
	case len(h.tail) > 0:
		n := copy(p, h.tail)
		h.tail = h.tail[n:]
		return n, nil
	}
	return 0, io.EOF
}

// The codec's helpers end with the request and its windows go back to the
// pool, on a refusal and a hang-up as on success, at one processor (no
// helpers) and at four; a body of one block starts none. A fault the read
// that hit the body cap brought is the cap's 413, as the serial scan has it.
func TestWireHelpersEndWithTheRequest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var started, out atomic.Int32
	defer func(s func(func()), g func() any, p func(any)) { blocks.Spawn, getWindow, putWindow = s, g, p }(blocks.Spawn, getWindow, putWindow)
	blocks.Spawn = func(f func()) { started.Add(1); go f() }
	getWindow = func() any { out.Add(1); return windowPool.Get() }
	putWindow = func(w any) { out.Add(-1); windowPool.Put(w) }
	v := benchVector()[:20000]
	body, err := json.Marshal(solveRequest{B: v})
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(body)
	at := len(bad)/2 + bytes.IndexByte(bad[len(bad)/2:], ',') + 1
	bad[at] = 'x'
	limit := len(body) / 2 // and a fault among the last bytes it lets through
	late := bytes.Clone(body)
	late[bytes.LastIndexByte(late[:limit-2], ',')+1] = 'x'
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct {
			name string
			run  func() error
			want func(error) bool
			many bool // more than one block or segment
		}{
			{"a fault in a middle block", func() error {
				_, err := decodeVectorRequest(bytes.NewReader(bad), opSolve, len(v))
				return err
			}, func(err error) bool {
				return IsBadRequest(err) && strings.Contains(err.Error(), fmt.Sprintf("offset %d: want a number", at))
			}, true},
			{"a body over the cap", func() error {
				_, err := decodeVectorRequest(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), int64(len(body)/2)), opSolve, len(v))
				return err
			}, func(err error) bool { return errors.Is(err, ErrBodyTooLarge) }, true},
			{"a fault in the bytes that reach the cap", func() error {
				_, err := decodeVectorRequest(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(late)), int64(limit)), opSolve, len(v))
				return err
			}, func(err error) bool { return errors.Is(err, ErrBodyTooLarge) }, true},
			{"a read error the body does not repeat", func() error {
				r := &hiccup{head: body[:len(body)/2], tail: body[len(body)/2:]}
				_, err := decodeVectorRequest(r, opSolve, len(v))
				return err
			}, func(err error) bool {
				return IsBadRequest(err) && strings.Contains(err.Error(), io.ErrClosedPipe.Error())
			}, true},
			{"a hang-up mid-response", func() error {
				return writeVectorResponse(&hangUp{discardResponse: discardResponse{header: http.Header{}}}, opSolve, outcome{y: v, lanes: 1})
			}, func(err error) bool { return errors.Is(err, io.ErrClosedPipe) }, true},
			{"one block", func() error {
				_, err := decodeVectorRequest(strings.NewReader(`{"b":[1,2,3]}`), opSolve, 3)
				return err
			}, func(err error) bool { return err == nil }, false},
		} {
			baseline := runtime.NumGoroutine()
			started.Store(0)
			if err := c.run(); !c.want(err) {
				t.Fatalf("GOMAXPROCS=%d, %s: err = %v", procs, c.name, err)
			}
			if n := out.Load(); n != 0 {
				t.Errorf("GOMAXPROCS=%d, %s: %d windows out of the pool", procs, c.name, n)
			}
			if n := started.Load(); (n > 0) != (procs > 1 && c.many) {
				t.Errorf("GOMAXPROCS=%d, %s: %d helpers started", procs, c.name, n)
			}
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("GOMAXPROCS=%d, %s: %d goroutines, %d before", procs, c.name, runtime.NumGoroutine(), baseline)
				}
			}
		}
	}
}

// The allocation gate: a round trip allocates the operand (8N), the result
// (8N) and fixed-size buffers — not a multiple of the body. A solve adds CG's
// own three work vectors, which are the solver's and not this layer's.
func TestRoundTripAllocation(t *testing.T) {
	const n = 100000
	_, _, ts := testHTTPServer(t, Options{QueueDepth: 8}, ServerOptions{})
	path, _ := testMatrixFile(t, n, 41)
	if resp, body := postJSON(t, ts.URL+"/v1/matrices", loadRequest{ID: "big", Path: path, Format: "sss-idx", Threads: 2}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d %v", resp.StatusCode, body)
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(float64(i)) * 1e3
	}
	for _, c := range []struct {
		op     string
		body   any
		solver uint64 // bytes the operation itself allocates beneath this layer
	}{
		{"spmv", spmvRequest{X: v}, 0},
		{"solve", solveRequest{B: v}, 3 * 8 * n},
	} {
		body, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		post := func() {
			resp, err := http.Post(ts.URL+"/v1/matrices/big/"+c.op, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if n, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK || n < 2*int64(len(v)) {
				t.Fatalf("%s: status %d, %d bytes, %v", c.op, resp.StatusCode, n, err)
			}
		}
		post() // connection, pooled windows
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		post()
		runtime.ReadMemStats(&after)
		got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*8*n+256<<10)+c.solver
		t.Logf("%s at N=%d with a %d-byte body: %d bytes allocated (limit %d)", c.op, n, len(body), got, limit)
		if got >= limit {
			t.Errorf("%s round trip allocated %d bytes, want under %d", c.op, got, limit)
		}
	}
}

// The dispatcher's operand block is reused from batch to batch: a 4-lane
// batch, then 3 lanes at the same padded width (the fourth lane is stale
// unless re-zeroed), then 2 lanes at a narrower one. Every lane equals its
// scalar solve and every padding lane is zero when the batch ran.
func TestDispatcherBlocksAreReused(t *testing.T) {
	reg := testRegistry(t, Options{Window: 100 * time.Millisecond, QueueDepth: 16})
	e := loadEntry(t, reg, "blocks", 300, 51)
	ref := loadEntry(t, reg, "blocks-ref", 300, 51) // the same matrix, for the scalar solves
	rng := rand.New(rand.NewSource(3))
	for _, lanes := range []int{4, 3, 2} {
		plug := plugDispatcher(t, e)
		reqs := make([]*request, lanes)
		for v := range reqs {
			b := make([]float64, e.N)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			reqs[v] = solveReq(b, nil, 1e-12)
			if err := e.batcher.Enqueue(reqs[v]); err != nil {
				t.Fatal(err)
			}
		}
		plug.releaseWhen(t, func() bool { return len(e.batcher.in) == lanes })
		<-plug.done
		for v, r := range reqs {
			out := <-r.done
			if out.err != nil || out.lanes != lanes || !out.converged {
				t.Fatalf("%d lanes, lane %d: %+v", lanes, v, out)
			}
			alone := solveReq(r.in, nil, 1e-12)
			if err := ref.batcher.Enqueue(alone); err != nil {
				t.Fatal(err)
			}
			want := <-alone.done
			if want.err != nil || want.lanes != 1 {
				t.Fatalf("scalar reference: %+v", want)
			}
			for i := range want.y {
				if d := math.Abs(out.y[i] - want.y[i]); d > 1e-9*(1+math.Abs(want.y[i])) {
					t.Fatalf("%d lanes, lane %d: x[%d] = %g, scalar solve has %g", lanes, v, i, out.y[i], want.y[i])
				}
			}
		}
		// The outcomes above were sent after the dispatch, so its block is quiet.
		nv := padWidth(lanes)
		for i := 0; i < e.N; i++ {
			for v := lanes; v < nv; v++ {
				if e.batcher.blockIn[i*nv+v] != 0 {
					t.Fatalf("%d lanes at width %d: padding lane %d holds %g at row %d", lanes, nv, v, e.batcher.blockIn[i*nv+v], i)
				}
			}
		}
	}
}

// benchVector is a vector the size of the benchmark's stencil workloads.
func benchVector() []float64 {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 131456)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// BenchmarkDecodeSolve scans a solve body the size the benchmark's stencil
// workloads post, beside what encoding/json took for it.
func BenchmarkDecodeSolve(b *testing.B) {
	v := benchVector()
	n := len(v)
	body, err := json.Marshal(solveRequest{B: v, Tol: 1e-8})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeVectorRequest(bytes.NewReader(body), opSolve, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, _, err := jsonReference(opSolve, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse struct{ header http.Header }

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkEncodeSolve writes the solve response for the same vector — the
// encode stage of an HTTP solve, in ns per float. Run at -cpu 1,2 it times
// the serial writer and the segment pipeline in one binary.
func BenchmarkEncodeSolve(b *testing.B) {
	out := outcome{y: benchVector(), lanes: 1, iterations: 300, converged: true, residual: 3.25e-11}
	w := &discardResponse{header: http.Header{}}
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := writeVectorResponse(w, opSolve, out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(out.y)), "ns/float")
	})
}
