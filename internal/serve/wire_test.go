package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"
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
	long := `{"b":[0.` + strings.Repeat("0", windowSize) + `1]}`
	if _, err := decodeVectorRequest(strings.NewReader(long), opSolve, 2); !IsBadRequest(err) {
		t.Fatalf("a number longer than the window: err = %v, want a bad request", err)
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

// BenchmarkDecodeSolve scans a solve body the size the benchmark's stencil
// workloads post, beside what encoding/json took for it.
func BenchmarkDecodeSolve(b *testing.B) {
	const n = 131456
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
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
