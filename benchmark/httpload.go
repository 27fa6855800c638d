package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

const matrixID = "bench"

// service is internal/serve on a loopback listener inside the benchmark
// process, plus the keep-alive client the load generator drives it with.
type service struct {
	reg    *serve.Registry
	hs     *http.Server
	served chan error // Serve's return, so stop can wait for the goroutine
	base   string
	client *http.Client
}

// startService brings the server up with an empty registry.
func startService(threads, clients int) (*service, error) {
	opts := serve.DefaultOptions()
	opts.Threads = threads
	opts.TuneCacheDir = "off"
	reg := serve.NewRegistry(opts)
	// One log line per request is part of what the server does; where it goes
	// is deployment, and here it goes nowhere.
	serve.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s := &service{
		reg:    reg,
		hs:     &http.Server{Handler: serve.NewServer(reg, serve.ServerOptions{})},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serve goroutine, and releases
// every kernel and batcher.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here only means a connection lingered; Close below ends it
	_ = s.hs.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.reg.Close()
}

// load registers the matrix file under matrixID with a pinned format; it is
// the program's Registry.Load, the call the HTTP load endpoint makes.
func (s *service) load(path, format string, threads int) error {
	_, err := s.reg.Load(matrixID, serve.LoadSpec{Path: path, Format: format, Threads: threads})
	return err
}

// solveBody pre-encodes a solve request with an explicit right-hand side.
func solveBody(b []float64, tol float64) ([]byte, error) {
	return json.Marshal(map[string]any{"b": b, "tol": tol})
}

// spmvBody pre-encodes a multiply request; a nil x asks for the server-side
// ones vector.
func spmvBody(x []float64) ([]byte, error) {
	if x == nil {
		return json.Marshal(map[string]any{"x_ones": true})
	}
	return json.Marshal(map[string]any{"x": x})
}

// post sends one pre-encoded request and reads the whole response into buf
// (reset first). It returns the HTTP status.
func (s *service) post(op string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := s.client.Post(s.base+"/v1/matrices/"+matrixID+"/"+op, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// batchLanes digs the batch_lanes field out of a response without decoding
// the vector in front of it; 0 when absent.
func batchLanes(resp []byte) int {
	key := []byte(`"batch_lanes":`)
	i := bytes.LastIndex(resp, key)
	if i < 0 {
		return 0
	}
	j := i + len(key)
	k := j
	for k < len(resp) && resp[k] >= '0' && resp[k] <= '9' {
		k++
	}
	n, _ := strconv.Atoi(string(resp[j:k])) // an empty digit run leaves 0, the "absent" answer
	return n
}

// solveReply / spmvReply mirror the server's response bodies.
type solveReply struct {
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Residual   float64   `json:"residual"`
	BatchLanes int       `json:"batch_lanes"`
}

type spmvReply struct {
	Y          []float64 `json:"y"`
	BatchLanes int       `json:"batch_lanes"`
}

// window is one closed-loop throughput window: `clients` goroutines issue the
// same request back to back until `total` have completed.
type window struct {
	seconds float64 // first send → last completion
	ok      int     // 200 responses
	failed  int     // anything else, transport errors included
	lanes   int     // Σ batch_lanes over the 200 responses
	lat     []float64
}

func (s *service) runWindow(tr *tracer, clients, total int, op string, body []byte) window {
	var next atomic.Int64
	var mu sync.Mutex
	var w window
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var buf bytes.Buffer
			for next.Add(1) <= int64(total) {
				sp := tr.root(lane, "serve", "POST "+op)
				t0 := time.Now()
				status, err := s.post(op, body, &buf)
				dt := time.Since(t0).Seconds()
				sp.end()
				mu.Lock()
				if err == nil && status == http.StatusOK {
					w.ok++
					w.lanes += batchLanes(buf.Bytes())
					w.lat = append(w.lat, dt)
				} else {
					w.failed++
				}
				mu.Unlock()
			}
		}(c + 1)
	}
	wg.Wait()
	w.seconds = time.Since(start).Seconds()
	return w
}

// rejected reads the server's own count of refused requests off /metrics.
func (s *service) rejected() (float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, line := range bytes.Split(text, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("symspmv_serve_rejected_total")) {
			continue
		}
		f := bytes.Fields(line)
		v, err := strconv.ParseFloat(string(f[len(f)-1]), 64)
		if err != nil {
			return 0, fmt.Errorf("parse %q: %w", line, err)
		}
		sum += v
	}
	return sum, nil
}
