package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
)

// Server is the HTTP front end: admission control, request decoding, and the
// wait-for-lane loop around the registry's batchers.
type Server struct {
	reg         *Registry
	mux         *http.ServeMux
	maxInflight int64
	maxBody     int64
	draining    atomic.Bool
	current     atomic.Int64
}

// ServerOptions tunes the HTTP layer.
type ServerOptions struct {
	// MaxInflight bounds admitted-but-unanswered requests server-wide;
	// beyond it new work is rejected with ErrSaturated (503). 0 means 256.
	MaxInflight int
	// MaxBodyBytes caps request bodies. 0 means 256 MiB — a dense float64
	// vector for N = 4M rows encoded as JSON is on that order. A vector
	// endpoint's cap is the smaller of this and what its matrix's N rows can
	// take (vectorBodyCap).
	MaxBodyBytes int64
}

// NewServer wires the handlers onto a fresh mux, including the /metrics
// endpoint backed by the process-wide obs registry.
func NewServer(reg *Registry, opts ServerOptions) *Server {
	if opts.MaxInflight == 0 {
		opts.MaxInflight = 256
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = 256 << 20
	}
	s := &Server{reg: reg, mux: http.NewServeMux(), maxInflight: int64(opts.MaxInflight), maxBody: opts.MaxBodyBytes}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/matrices", s.handleList)
	s.mux.HandleFunc("POST /v1/matrices", s.handleLoad)
	s.mux.HandleFunc("DELETE /v1/matrices/{id}", s.handleUnload)
	s.mux.HandleFunc("POST /v1/matrices/{id}/spmv", s.handleVector(opSpMV))
	s.mux.HandleFunc("POST /v1/matrices/{id}/solve", s.handleVector(opSolve))
	s.mux.Handle("GET /metrics", obs.Default.Handler())
	for pattern, h := range obs.DebugHandlers() {
		s.mux.Handle("GET "+pattern, h)
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDraining flips the server into shutdown mode: every subsequent
// request is rejected with ErrDraining while in-flight work completes. The
// caller follows with http.Server.Shutdown and Registry.Close.
func (s *Server) StartDraining() { s.draining.Store(true) }

// admit applies the server-wide gates; the returned release func must be
// called when the request is answered.
func (s *Server) admit() (release func(), err error) {
	if s.draining.Load() {
		rejectedDraining.Inc()
		return nil, ErrDraining
	}
	if s.current.Add(1) > s.maxInflight {
		s.current.Add(-1)
		rejectedSaturated.Inc()
		return nil, ErrSaturated
	}
	inflightAdd(1)
	return func() {
		s.current.Add(-1)
		inflightAdd(-1)
	}, nil
}

type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, err error) {
	status, code := StatusFor(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	var body errorBody
	body.Error.Code = code
	body.Error.Message = err.Error()
	writeJSON(w, status, body)
}

// writeJSON answers with one of the small control-plane bodies (load, list,
// health, errors); the vector responses go through writeVectorResponse.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logger().Warn("serve: write response", "status", status, "error", err.Error())
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": status,
		"commit": buildinfo.Commit(),
		"api":    buildinfo.ServeAPI,
	})
}

type loadRequest struct {
	ID      string `json:"id"`
	Path    string `json:"path"`
	Format  string `json:"format,omitempty"`
	Threads int    `json:"threads,omitempty"`
}

type matrixInfo struct {
	ID       string `json:"id"`
	N        int    `json:"n"`
	NNZ      int    `json:"nnz"`
	Format   string `json:"format"`
	Threads  int    `json:"threads"`
	Bytes    int64  `json:"bytes"`
	SpMM     bool   `json:"spmm"`
	CacheHit bool   `json:"tune_cache_hit"`
	Trials   int    `json:"tune_trials"`
	LoadedAt string `json:"loaded_at"`
}

func infoOf(e *Entry) matrixInfo {
	return matrixInfo{
		ID: e.ID, N: e.N, NNZ: e.NNZ, Format: e.Format, Threads: e.Threads,
		Bytes: e.Bytes, SpMM: e.SpMM, CacheHit: e.CacheHit, Trials: e.Trials,
		LoadedAt: e.LoadedAt.UTC().Format(time.RFC3339),
	}
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, ErrDraining)
		return
	}
	var req loadRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, BadRequestf("decode body: %v", err))
		return
	}
	if req.Path == "" {
		writeError(w, BadRequestf("path is required"))
		return
	}
	e, err := s.reg.Load(req.ID, LoadSpec{Path: req.Path, Format: req.Format, Threads: req.Threads})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, infoOf(e))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.List()
	out := make([]matrixInfo, len(entries))
	for i, e := range entries {
		out[i] = infoOf(e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"matrices": out})
}

func (s *Server) handleUnload(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Unload(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"unloaded": r.PathValue("id")})
}

// inputVector validates the request vector against the matrix dimension,
// synthesizing the ones-vector variants server-side.
func (s *Server) inputVector(e *Entry, op opKind, v []float64, ones bool) ([]float64, error) {
	name := wireFields[op][0]
	if ones {
		if v != nil {
			return nil, BadRequestf("give %s or %s_ones, not both", name, name)
		}
		x := make([]float64, e.N)
		for i := range x {
			x[i] = 1
		}
		if op == opSolve {
			// b = A·1 through the registered kernel, so "converged" means
			// the solver reproduced the all-ones solution.
			req := newRequest("", e.ID, batchKey{op: opSpMV}, x, context.Background())
			if err := e.batcher.Enqueue(req); err != nil {
				return nil, err
			}
			out := <-req.done
			if out.err != nil {
				return nil, out.err
			}
			return out.y, nil
		}
		return x, nil
	}
	if len(v) != e.N {
		return nil, BadRequestf("%s has %d entries, matrix has %d rows", name, len(v), e.N)
	}
	return v, nil
}

// awaitOutcome waits for an enqueued request's lane result, or for its caller
// to give up — an outcome with nothing in it but that error.
func awaitOutcome(req *request) outcome {
	select {
	case out := <-req.done:
		return out
	case <-req.ctx.Done():
		// The batcher still owns the request and will discard its result;
		// done is buffered so the dispatcher never blocks on us.
		return outcome{err: req.ctx.Err()}
	}
}

// vectorBodyCap bounds a /spmv or /solve body for a matrix of n rows: a
// float64 is at most 24 characters in JSON, so 32 a row leaves room for a
// separator and indentation, and 4 KiB for everything that is not the vector.
func (s *Server) vectorBodyCap(n int) int64 {
	return min(s.maxBody, 32*int64(n)+4<<10)
}

// handleVector serves /spmv and /solve: one decode path, one lane through the
// matrix's batcher, one encode path. The body's keys and the response's
// fields are the only things op decides here (wire.go), plus the solve's
// tolerance, iteration cap and timeout.
func (s *Server) handleVector(op opKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := s.admit()
		if err != nil {
			writeError(w, err)
			return
		}
		defer release()
		e, err := s.reg.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		decStart := obs.Now()
		req, err := decodeVectorRequest(http.MaxBytesReader(w, r.Body, s.vectorBodyCap(e.N)), op, e.N)
		decEnd := obs.Now()
		if err != nil {
			writeError(w, err)
			return
		}
		in, err := s.inputVector(e, op, req.vec, req.ones)
		if err != nil {
			writeError(w, err)
			return
		}
		key, ctx := batchKey{op: op}, r.Context()
		if op == opSolve {
			if req.tol < 0 || req.maxIter < 0 || req.timeoutMS < 0 {
				writeError(w, BadRequestf("tol, max_iter and timeout_ms must be non-negative"))
				return
			}
			key.tol, key.maxIter = req.tol, req.maxIter
			if key.tol == 0 {
				key.tol = 1e-10
			}
			if req.timeoutMS > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(req.timeoutMS)*time.Millisecond)
				defer cancel()
			}
		}
		rq := newRequest(requestID(r.Header), e.ID, key, in, ctx)
		w.Header().Set("X-Request-Id", rq.id)
		decodeNs := observeStage(rq, stageDecode, spanDecode, decStart, decEnd)
		e.requests.Inc()
		if err := e.batcher.Enqueue(rq); err != nil {
			writeError(w, err) // turned away at the queue: counted there, not logged
			return
		}
		out := awaitOutcome(rq)
		if out.err != nil {
			writeError(w, out.err)
			logRequest(rq, out, decodeNs, 0)
			return
		}
		encStart := obs.Now()
		if err := writeVectorResponse(w, op, out); err != nil {
			logger().Warn("serve: write response", "request", rq.id, "error", err.Error())
		}
		encodeNs := observeStage(rq, stageEncode, spanEncode, encStart, obs.Now())
		logRequest(rq, out, decodeNs, encodeNs)
	}
}
