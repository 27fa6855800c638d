package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRequestIDFromTraceparent(t *testing.T) {
	h := http.Header{}
	h.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if got := requestID(h); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("requestID = %q, want the inbound trace-id", got)
	}
}

func TestRequestIDGenerated(t *testing.T) {
	cases := map[string]string{
		"absent":       "",
		"truncated":    "00-4bf92f3577b34da6",
		"non-hex":      "00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",
		"all-zero":     "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"wrong-dashes": "00x4bf92f3577b34da6a3ce929d0e0e4736x00f067aa0ba902b7x01",
	}
	seen := map[string]bool{}
	for name, tp := range cases {
		h := http.Header{}
		if tp != "" {
			h.Set("traceparent", tp)
		}
		id := requestID(h)
		if len(id) != 32 || strings.ContainsAny(id, "-") {
			t.Errorf("%s: generated id %q, want 32 hex digits", name, id)
		}
		if tp != "" && strings.Contains(tp, id) {
			t.Errorf("%s: id %q taken from invalid traceparent", name, id)
		}
		if seen[id] {
			t.Errorf("%s: duplicate generated id %q", name, id)
		}
		seen[id] = true
	}
}

// TestObserveRequestClampsEarlyFailure: a request that dies before pickup
// (queue full at dispatch, context canceled) has zero pick/dispatch stamps;
// the stage decomposition must clamp instead of producing negative waits.
func TestObserveRequestClampsEarlyFailure(t *testing.T) {
	q0, c0, s0 := stageQueueWait.Sum(), stageCoalesceWait.Sum(), stageSolve.Sum()
	r := newRequest("", "m", batchKey{op: opSpMV}, nil, nil)
	r.enqNs = 1000
	if st := observeRequest(r, 5000); st != (stageTimes{queue: 4000}) {
		t.Errorf("stages = %+v, want 4000 ns of queue wait only", st)
	}
	if d := stageQueueWait.Sum() - q0; d <= 0 {
		t.Errorf("queue-wait sum advanced by %g, want > 0", d)
	}
	if d := stageCoalesceWait.Sum() - c0; d != 0 {
		t.Errorf("coalesce-wait sum advanced by %g, want 0 (clamped)", d)
	}
	if d := stageSolve.Sum() - s0; d != 0 {
		t.Errorf("solve sum advanced by %g, want 0 (clamped)", d)
	}
}

// The five stages cover the handler: decode, queue wait, coalescing wait,
// solve and encode of one solve sum to the handler's wall time within 10 %.
// What they leave out is a registry lookup, a length check and two goroutine
// wake-ups, so the vector is large enough for those to be small change; a
// descheduled handler can still stretch a gap, hence the second chances.
func TestStagesCoverTheHandler(t *testing.T) {
	reg := testRegistry(t, Options{QueueDepth: 8})
	e := loadEntry(t, reg, "stages", 40000, 31)
	s := NewServer(reg, ServerOptions{})
	walls := make(chan time.Duration, 1) // the handler returns after the client has its answer
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.ServeHTTP(w, r)
		walls <- time.Since(t0)
	}))
	defer ts.Close()

	b := make([]float64, e.N)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	body, err := json.Marshal(solveRequest{B: b})
	if err != nil {
		t.Fatal(err)
	}
	stages := []interface{ Sum() float64 }{stageDecode, stageQueueWait, stageCoalesceWait, stageSolve, stageEncode}
	sum := func() (s float64) {
		for _, h := range stages {
			s += h.Sum()
		}
		return s
	}
	var covered float64
	for try := 0; try < 3; try++ {
		before := sum()
		resp, raw := postRaw(t, ts.URL+"/v1/matrices/stages/solve", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: status %d body %.200s", resp.StatusCode, raw)
		}
		covered = (sum() - before) / (<-walls).Seconds()
		if math.Abs(covered-1) <= 0.10 {
			return
		}
	}
	t.Errorf("the five stages sum to %.3f of the handler's wall time, want within 10 %%", covered)
}
