package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	symspmv "repro"
)

func testHTTPServer(t *testing.T, regOpts Options, srvOpts ServerOptions) (*Server, *Registry, *httptest.Server) {
	t.Helper()
	reg := testRegistry(t, regOpts)
	s := NewServer(reg, srvOpts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, reg, ts
}

// The wire schema of the vector endpoints as encoding/json struct tags: what
// the tests post, and the reference the codec in wire.go is held to (byte
// identity of responses, differential fuzzing of requests).
type spmvRequest struct {
	X     []float64 `json:"x,omitempty"`
	XOnes bool      `json:"x_ones,omitempty"`
}

type spmvResponse struct {
	Y          []float64 `json:"y"`
	BatchLanes int       `json:"batch_lanes"`
}

type solveRequest struct {
	B         []float64 `json:"b,omitempty"`
	BOnes     bool      `json:"b_ones,omitempty"` // b = A·1, so the exact solution is all-ones
	Tol       float64   `json:"tol,omitempty"`
	MaxIter   int       `json:"max_iter,omitempty"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
}

type solveResponse struct {
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Residual   float64   `json:"residual"`
	BatchLanes int       `json:"batch_lanes"`
}

// postRaw posts body as it stands and returns the response with its bytes.
func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// postJSON posts body — marshalled, unless it is already bytes — and parses
// the answer.
func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, ok := body.([]byte)
	if !ok {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, raw := postRaw(t, url, buf)
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("status %d, non-JSON body %q", resp.StatusCode, raw)
		}
	}
	return resp, out
}

func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error object in %v", body)
	}
	code, _ := e["code"].(string)
	return code
}

func TestHTTPLifecycle(t *testing.T) {
	_, _, ts := testHTTPServer(t, Options{Window: 5 * time.Millisecond, QueueDepth: 32}, ServerOptions{})
	path, a := testMatrixFile(t, 250, 21)

	// Load with a pinned format.
	resp, body := postJSON(t, ts.URL+"/v1/matrices", loadRequest{ID: "m1", Path: path, Format: "sss-idx", Threads: 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load: status %d body %v", resp.StatusCode, body)
	}
	if body["n"].(float64) != float64(a.N()) || body["spmm"] != true {
		t.Fatalf("load response: %v", body)
	}

	// Duplicate id conflicts.
	resp, body = postJSON(t, ts.URL+"/v1/matrices", loadRequest{ID: "m1", Path: path})
	if resp.StatusCode != http.StatusConflict || errCode(t, body) != "exists" {
		t.Fatalf("duplicate load: status %d body %v", resp.StatusCode, body)
	}

	// List shows it.
	lresp, err := http.Get(ts.URL + "/v1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Matrices []matrixInfo `json:"matrices"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list.Matrices) != 1 || list.Matrices[0].ID != "m1" {
		t.Fatalf("list: %+v", list)
	}

	// Solve b = A·1: the solution is all-ones.
	resp, body = postJSON(t, ts.URL+"/v1/matrices/m1/solve", solveRequest{BOnes: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d body %v", resp.StatusCode, body)
	}
	if body["converged"] != true {
		t.Fatalf("solve did not converge: %v", body)
	}
	xs := body["x"].([]any)
	for i, v := range xs {
		if d := math.Abs(v.(float64) - 1); d > 1e-8 {
			t.Fatalf("x[%d] = %v, want 1", i, v)
		}
	}

	// SpMV x = ones equals the solve's right-hand side construction.
	resp, body = postJSON(t, ts.URL+"/v1/matrices/m1/spmv", spmvRequest{XOnes: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spmv: status %d body %v", resp.StatusCode, body)
	}
	if len(body["y"].([]any)) != a.N() {
		t.Fatalf("spmv length: %d", len(body["y"].([]any)))
	}

	// Unload, then everything 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/matrices/m1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("unload: status %d", dresp.StatusCode)
	}
	resp, body = postJSON(t, ts.URL+"/v1/matrices/m1/solve", solveRequest{BOnes: true})
	if resp.StatusCode != http.StatusNotFound || errCode(t, body) != "not_found" {
		t.Fatalf("solve after unload: status %d body %v", resp.StatusCode, body)
	}
}

func TestHTTPValidation(t *testing.T) {
	_, _, ts := testHTTPServer(t, Options{QueueDepth: 8}, ServerOptions{})
	path, _ := testMatrixFile(t, 100, 22)
	if resp, _ := postJSON(t, ts.URL+"/v1/matrices", loadRequest{ID: "v", Path: path, Format: "sss-idx", Threads: 2}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d", resp.StatusCode)
	}

	huge := make([]float64, 100) // A·huge overflows: every diagonal entry is above 4
	for i := range huge {
		huge[i] = 1e308
	}
	// 100 rows cap the body at 32·100 + 4096 bytes whatever MaxBodyBytes says.
	padded := []byte(`{"x_ones":true` + strings.Repeat(" ", 8000) + `}`)

	cases := []struct {
		name   string
		url    string
		body   any
		status int
		code   string
	}{
		{"missing path", "/v1/matrices", loadRequest{ID: "x"}, http.StatusBadRequest, "bad_request"},
		{"bad path", "/v1/matrices", loadRequest{ID: "x", Path: "/nonexistent.mtx"}, http.StatusBadRequest, "bad_request"},
		{"bad format", "/v1/matrices", loadRequest{ID: "x", Path: path, Format: "nope"}, http.StatusBadRequest, "bad_request"},
		{"bad id", "/v1/matrices", loadRequest{ID: "a b", Path: path}, http.StatusBadRequest, "bad_request"},
		{"wrong b length", "/v1/matrices/v/solve", solveRequest{B: []float64{1, 2, 3}}, http.StatusBadRequest, "bad_request"},
		{"b one too long", "/v1/matrices/v/solve", solveRequest{B: make([]float64, 101)}, http.StatusBadRequest, "bad_request"},
		{"b and b_ones", "/v1/matrices/v/solve", solveRequest{B: make([]float64, 100), BOnes: true}, http.StatusBadRequest, "bad_request"},
		{"negative tol", "/v1/matrices/v/solve", solveRequest{BOnes: true, Tol: -1}, http.StatusBadRequest, "bad_request"},
		{"wrong x length", "/v1/matrices/v/spmv", spmvRequest{X: []float64{1}}, http.StatusBadRequest, "bad_request"},
		{"unknown matrix", "/v1/matrices/zzz/spmv", spmvRequest{XOnes: true}, http.StatusNotFound, "not_found"},
		{"unknown field", "/v1/matrices/v/solve", map[string]any{"bogus": 1}, http.StatusBadRequest, "bad_request"},
		{"solve key on spmv", "/v1/matrices/v/spmv", map[string]any{"x_ones": true, "tol": 1e-8}, http.StatusBadRequest, "bad_request"},
		{"duplicate key", "/v1/matrices/v/spmv", []byte(`{"x_ones":true,"x_ones":true}`), http.StatusBadRequest, "bad_request"},
		{"data after the body", "/v1/matrices/v/spmv", []byte(`{"x_ones":true} {}`), http.StatusBadRequest, "bad_request"},
		{"non-finite result", "/v1/matrices/v/spmv", spmvRequest{X: huge}, http.StatusUnprocessableEntity, "non_finite_result"},
		{"body over the matrix's cap", "/v1/matrices/v/spmv", padded, http.StatusRequestEntityTooLarge, "body_too_large"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.url, c.body)
		if resp.StatusCode != c.status || errCode(t, body) != c.code {
			t.Errorf("%s: status %d, want %d %s (body %v)", c.name, resp.StatusCode, c.status, c.code, body)
		}
	}
}

// Admission control is deterministic at the Server level: the in-flight gate
// and the draining flag reject with the right typed errors, and the HTTP
// layer maps them to 503 with a Retry-After hint.
func TestAdmissionGates(t *testing.T) {
	s, _, ts := testHTTPServer(t, Options{QueueDepth: 8}, ServerOptions{MaxInflight: 2})

	rel1, err := s.admit()
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.admit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.admit(); !errors.Is(err, ErrSaturated) {
		t.Fatalf("over cap: err = %v, want ErrSaturated", err)
	}
	rel1()
	rel3, err := s.admit()
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	rel2()
	rel3()

	s.StartDraining()
	if _, err := s.admit(); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining: err = %v, want ErrDraining", err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/matrices/any/solve", solveRequest{BOnes: true})
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != "draining" {
		t.Fatalf("draining over HTTP: status %d body %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health["status"] != "draining" {
		t.Fatalf("healthz while draining: %v", health)
	}
}

// Saturating a tiny per-matrix queue over HTTP yields typed 429s while every
// admitted request completes correctly — nothing hangs, nothing is lost.
func TestHTTPBackpressure(t *testing.T) {
	_, reg, ts := testHTTPServer(t,
		Options{Window: 100 * time.Millisecond, QueueDepth: 1, MaxBatch: 2},
		ServerOptions{MaxInflight: 64})
	path, _ := testMatrixFile(t, 200, 23)
	if resp, _ := postJSON(t, ts.URL+"/v1/matrices", loadRequest{ID: "bp", Path: path, Format: "sss-idx", Threads: 2}); resp.StatusCode != http.StatusCreated {
		t.Fatal("load failed")
	}
	e, err := reg.Get("bp")
	if err != nil {
		t.Fatal(err)
	}
	plug := plugDispatcher(t, e)
	rejected0 := rejectedQueueFull.Value()

	const reqs = 24
	var ok, rejected, other int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < reqs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/matrices/bp/solve", solveRequest{BOnes: true})
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
				if body["converged"] != true {
					t.Errorf("admitted solve did not converge: %v", body)
				}
			case http.StatusTooManyRequests:
				rejected++
				if errCode(t, body) != "queue_full" {
					t.Errorf("429 code: %v", body)
				}
			default:
				other++
				t.Errorf("unexpected status %d: %v", resp.StatusCode, body)
			}
		}()
	}
	// Hold the dispatcher until the one-slot queue is full and has turned a
	// request away, so both outcomes occur however the requests interleave.
	plug.releaseWhen(t, func() bool { return len(e.batcher.in) == 1 && rejectedQueueFull.Value() > rejected0 })
	wg.Wait()
	<-plug.done
	if ok == 0 {
		t.Fatal("no request was admitted")
	}
	if rejected == 0 {
		t.Fatalf("queue depth 1 with %d concurrent requests produced no 429s (ok=%d)", reqs, ok)
	}
	t.Logf("backpressure: %d ok, %d rejected (queue_full), %d other", ok, rejected, other)
}

// A b_ones solve computes b = A·1 through the matrix's queue under the
// request's own deadline: behind a held dispatcher it answers 504 when
// timeout_ms runs out, not when the queue drains, and leaves no goroutine
// behind once the queued product is discarded.
func TestBOnesHonoursTimeout(t *testing.T) {
	_, reg, ts := testHTTPServer(t, Options{QueueDepth: 8}, ServerOptions{})
	path, _ := testMatrixFile(t, 100, 25)
	if resp, _ := postJSON(t, ts.URL+"/v1/matrices", loadRequest{ID: "to", Path: path, Format: "sss-idx", Threads: 2}); resp.StatusCode != http.StatusCreated {
		t.Fatal("load failed")
	}
	e, err := reg.Get("to")
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/matrices/to/solve"
	if resp, body := postJSON(t, url, solveRequest{BOnes: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("unplugged solve: status %d body %v", resp.StatusCode, body)
	}
	baseline := runtime.NumGoroutine() // the keep-alive connection included

	plug := plugDispatcher(t, e)
	type answer struct {
		status int
		body   []byte
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(`{"b_ones":true,"timeout_ms":50}`))
		if err != nil {
			answered <- answer{}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		answered <- answer{resp.StatusCode, body}
	}()
	select {
	case a := <-answered:
		if a.status != http.StatusGatewayTimeout || !strings.Contains(string(a.body), `"deadline_exceeded"`) {
			t.Fatalf("status %d body %s, want 504 deadline_exceeded", a.status, a.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a 50 ms b_ones solve was not answered while the dispatcher was held")
	}
	plug.open()
	<-plug.done
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the plugged request", runtime.NumGoroutine(), baseline)
		}
	}
}

// The body cap allows 32 bytes a row; a compact body of the longest float64
// literals, 25 bytes and a comma each, is taken, not answered 413. At 5000
// rows the cap's fixed 4 KiB would not cover 24 bytes a row.
func TestLongestLiteralsFitTheBodyCap(t *testing.T) {
	const n, longest = 5000, "-0.0000012345678901234567"
	_, _, ts := testHTTPServer(t, Options{QueueDepth: 8}, ServerOptions{})
	path, _ := testMatrixFile(t, n, 26)
	if resp, _ := postJSON(t, ts.URL+"/v1/matrices", loadRequest{ID: "long", Path: path, Format: "sss-idx", Threads: 2}); resp.StatusCode != http.StatusCreated {
		t.Fatal("load failed")
	}
	body := []byte(`{"b":[` + strings.Repeat(longest+",", n-1) + longest + `]}`)
	resp, out := postJSON(t, ts.URL+"/v1/matrices/long/solve", body)
	if resp.StatusCode != http.StatusOK || len(out["x"].([]any)) != n {
		t.Fatalf("a %d-byte body of %d literals of %d bytes: status %d", len(body), n, len(longest), resp.StatusCode)
	}
}

// Concurrent solves over HTTP coalesce (batch_lanes >= 2 for some request)
// and the batch-size histogram on /metrics records multi-lane dispatches.
func TestHTTPCoalescingAndMetrics(t *testing.T) {
	_, reg, ts := testHTTPServer(t,
		Options{Window: 100 * time.Millisecond, QueueDepth: 64},
		ServerOptions{})
	path, _ := testMatrixFile(t, 250, 24)
	if resp, _ := postJSON(t, ts.URL+"/v1/matrices", loadRequest{ID: "cm", Path: path, Format: "sss-idx", Threads: 2}); resp.StatusCode != http.StatusCreated {
		t.Fatal("load failed")
	}
	e, err := reg.Get("cm")
	if err != nil {
		t.Fatal(err)
	}
	plug := plugDispatcher(t, e)

	const reqs = 6
	lanes := make([]int, reqs)
	var wg sync.WaitGroup
	for r := 0; r < reqs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/matrices/cm/solve", solveRequest{BOnes: true, Tol: 1e-10})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d body %v", r, resp.StatusCode, body)
				return
			}
			if body["converged"] != true {
				t.Errorf("request %d did not converge", r)
			}
			lanes[r] = int(body["batch_lanes"].(float64))
			for i, v := range body["x"].([]any) {
				if d := math.Abs(v.(float64) - 1); d > 1e-8 {
					t.Errorf("request %d: x[%d] off by %g", r, i, d)
					return
				}
			}
		}(r)
	}
	plug.releaseWhen(t, func() bool { return len(e.batcher.in) == reqs })
	wg.Wait()
	<-plug.done

	batched := 0
	for _, l := range lanes {
		if l >= 2 {
			batched++
		}
	}
	if batched == 0 {
		t.Fatalf("no HTTP solve coalesced: lanes = %v", lanes)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"symspmv_serve_batch_size_bucket",
		"symspmv_serve_batched_lanes_total",
		"symspmv_serve_coalescing_efficiency",
		`symspmv_serve_matrix_requests_total{matrix="cm"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "symspmv_serve_batched_lanes_total") {
			var v float64
			if _, err := fmt.Sscanf(line, "symspmv_serve_batched_lanes_total %f", &v); err == nil && v < 2 {
				t.Errorf("batched lanes counter = %v after coalesced solves", v)
			}
		}
	}
}

// gatedBody is a request body that sends its first byte at once and the rest
// only once open runs, so its handler is admitted and decoding until then.
// A failed test opens it too, so no handler outlives the test server.
func gatedBody(t *testing.T, body []byte) (r io.Reader, open func()) {
	gate := make(chan struct{})
	open = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open)
	return io.MultiReader(bytes.NewReader(body[:1]), gateReader(gate), bytes.NewReader(body[1:])), open
}

type gateReader <-chan struct{}

func (g gateReader) Read([]byte) (int, error) {
	<-g
	return 0, io.EOF
}

// postSolve posts a solve body and parses the answer.
func postSolve(t *testing.T, url string, body io.Reader) (int, solveResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Error(err)
		return 0, solveResponse{}
	}
	defer resp.Body.Close()
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Errorf("status %d: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// onesRHS is b = A·1 through e's kernel, so a solve's answer is all ones.
func onesRHS(e *Entry) []float64 {
	x, b := make([]float64, e.N), make([]float64, e.N)
	for i := range x {
		x[i] = 1
	}
	e.kern.MulVec(x, b)
	return b
}

// waitHeld waits until n vector requests to e are in the server.
func waitHeld(t *testing.T, e *Entry, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); e.batcher.held.Load() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests held, want %d", e.batcher.held.Load(), n)
		}
	}
}

// A request with no other request to its matrix in the server never waits
// for the window, whatever its length — the b_ones product it runs first
// counts as the same request, not a second one.
func TestLoneRequestNeverHolds(t *testing.T) {
	_, reg, ts := testHTTPServer(t, Options{Window: 10 * time.Second, QueueDepth: 8}, ServerOptions{})
	loadEntry(t, reg, "lone", 250, 27)
	start := time.Now()
	status, out := postSolve(t, ts.URL+"/v1/matrices/lone/solve", strings.NewReader(`{"b_ones":true}`))
	if elapsed := time.Since(start); status != http.StatusOK || !out.Converged || out.BatchLanes != 1 || elapsed > time.Second {
		t.Fatalf("status %d, converged %v, batch_lanes %d after %v; want 200, true, 1 in under 1 s",
			status, out.Converged, out.BatchLanes, elapsed)
	}
}

// Four solves admitted before the first is dispatched go out as one 4-lane
// block as soon as the fourth is queued, not when the window closes: each
// body holds back until all four handlers are decoding.
func TestBurstDispatchesAsOneBlock(t *testing.T) {
	_, reg, ts := testHTTPServer(t, Options{Window: 10 * time.Second, QueueDepth: 8}, ServerOptions{})
	e := loadEntry(t, reg, "burst", 250, 28)
	body, err := json.Marshal(solveRequest{B: onesRHS(e), Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}

	const reqs = 4
	outs := make([]solveResponse, reqs)
	opens := make([]func(), reqs)
	start := time.Now()
	var wg sync.WaitGroup
	for r := range reqs {
		var gated io.Reader
		gated, opens[r] = gatedBody(t, body)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, outs[r] = postSolve(t, ts.URL+"/v1/matrices/burst/solve", gated)
		}()
	}
	waitHeld(t, e, reqs)
	for _, open := range opens {
		open()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("the burst took %v against a 10 s window", elapsed)
	}
	for r, out := range outs {
		if out.BatchLanes != reqs || !out.Converged || len(out.X) != e.N {
			t.Fatalf("request %d: batch_lanes %d, converged %v, %d entries; want %d, true, %d",
				r, out.BatchLanes, out.Converged, len(out.X), reqs, e.N)
		}
		for i, v := range out.X {
			if d := math.Abs(v - 1); d > 1e-8 {
				t.Fatalf("request %d: x[%d] off by %g", r, i, d)
			}
		}
	}
}

// A request in the server whose key is not yet known holds a batch open, but
// only until the window closes: the batch goes out then, alone, while the
// other request (a different tolerance, so it could not have joined) is still
// decoding.
func TestIncompatibleRequestEndsHoldAtWindow(t *testing.T) {
	const window = 300 * time.Millisecond
	_, reg, ts := testHTTPServer(t, Options{Window: window, QueueDepth: 8}, ServerOptions{})
	e := loadEntry(t, reg, "other", 250, 29)
	url := ts.URL + "/v1/matrices/other/solve"

	gated, open := gatedBody(t, []byte(`{"b_ones":true,"tol":1e-6}`))
	other := make(chan solveResponse, 1)
	go func() {
		_, out := postSolve(t, url, gated)
		other <- out
	}()
	waitHeld(t, e, 1)

	body, err := json.Marshal(solveRequest{B: onesRHS(e)})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	status, out := postSolve(t, url, bytes.NewReader(body))
	elapsed := time.Since(start)
	open()
	o := <-other
	if status != http.StatusOK || out.BatchLanes != 1 || !out.Converged {
		t.Fatalf("held request: status %d, batch_lanes %d, converged %v", status, out.BatchLanes, out.Converged)
	}
	if elapsed < window || elapsed > window+time.Second {
		t.Fatalf("held request answered after %v, want the %v window and no more", elapsed, window)
	}
	if o.BatchLanes != 1 || !o.Converged {
		t.Fatalf("incompatible request: batch_lanes %d, converged %v", o.BatchLanes, o.Converged)
	}
}

// BenchmarkBurstSolve drives the poisson-multirhs matrix of the benchmark's
// throughput phase through an httptest server with the default options: per
// iteration, 4 closed-loop clients each post 8 explicit-b solves back to
// back. It reports requests per second and the mean batch_lanes of the
// responses, 4 when every burst goes out as one block. Unlike the phase's
// windows of 8 requests the loop never pauses, so a client's next request
// can miss the batch its response left.
func BenchmarkBurstSolve(b *testing.B) {
	const clients, solves = 4, 8
	a, err := symspmv.GeneratePoisson2D(144)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.TuneCacheDir = "off"
	reg := NewRegistry(opts)
	defer reg.Close()
	defer SetLogger(reqLogger.Load())
	SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(NewServer(reg, ServerOptions{}))
	defer ts.Close()
	e, err := reg.Load("poisson", LoadSpec{Path: writeMatrixFile(b, a), Format: "sss-idx", Threads: 2})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(solveRequest{B: onesRHS(e), Tol: 1e-8})
	if err != nil {
		b.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	url := ts.URL + "/v1/matrices/poisson/solve"
	var lanes atomic.Int64
	burst := func() {
		var wg sync.WaitGroup
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range solves {
					resp, err := client.Post(url, "application/json", bytes.NewReader(body))
					if err != nil {
						b.Error(err)
						return
					}
					// The tail alone, as a load generator reads it: decoding x
					// here would hold the client, not the server, and space
					// the requests of a burst apart.
					raw, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					tail := raw[max(len(raw)-128, 0):]
					i := bytes.LastIndex(tail, []byte(`"batch_lanes":`))
					if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(tail, []byte(`"converged":true`)) || i < 0 {
						b.Errorf("status %d, %v, response ends %q", resp.StatusCode, err, tail)
						return
					}
					lanes.Add(int64(tail[i+len(`"batch_lanes":`)] - '0'))
				}
			}()
		}
		wg.Wait()
	}
	burst() // warm every connection
	lanes.Store(0)
	b.ResetTimer()
	for range b.N {
		burst()
	}
	reqs := float64(b.N * clients * solves)
	b.ReportMetric(reqs/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(lanes.Load())/reqs, "lanes/req")
}
