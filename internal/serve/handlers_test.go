package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
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
