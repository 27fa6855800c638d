// symspmv-serve is the multi-tenant solve service: it keeps a registry of
// prepared kernels (autotuned once per matrix, warm-started from the tuning
// cache) and serves SpMV and CG-solve requests over HTTP JSON. Concurrent
// requests against the same matrix coalesce into one multi-RHS dispatch —
// MulMat / block CG at nv ∈ {2,4,8} — so the matrix is streamed once for the
// whole batch; see DESIGN.md §13.
//
//	symspmv-serve -addr :8723 &
//	curl -s localhost:8723/v1/matrices -d '{"id":"m","path":"m.mtx"}'
//	curl -s localhost:8723/v1/matrices/m/solve -d '{"b_ones":true}'
//
// SIGINT/SIGTERM drain gracefully: new requests get 503, in-flight solves
// finish, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/serve"
)

// newHTTPServer cuts off a client that never finishes its headers, which
// would hold a connection and a goroutine out of -max-inflight's sight.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8723", "listen address")
	def := serve.DefaultOptions()
	window := flag.Duration("window", def.Window, "coalescing window: the longest a batch stays open while another request to its matrix is in the server (0 = only coalesce what is already queued)")
	maxBatch := flag.Int("max-batch", def.MaxBatch, "max real request lanes per dispatch (clamped to 8, the widest SpMM fast path)")
	queue := flag.Int("queue", def.QueueDepth, "per-matrix request queue depth; a full queue returns 429")
	maxInflight := flag.Int("max-inflight", 256, "server-wide in-flight request cap; beyond it requests get 503")
	threads := flag.Int("threads", 0, "default worker-thread cap per kernel (0 = facade default)")
	tuneCache := flag.String("tune-cache", "", "tuning-cache directory for autotuned loads (default: the user cache dir; \"off\" disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	sample := flag.Bool("sample", true, "sample kernel operations: phase metrics and roofline attribution on /metrics and /debug/attrib")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON of the final spans here on drain (implies -sample)")
	logJSON := flag.Bool("log-json", false, "emit per-request structured logs as JSON (default: logfmt-style text)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Print(buildinfo.Version("symspmv-serve"))
		return
	}

	// Per-request structured logs (request id, stage timings) to stderr.
	var lh slog.Handler
	if *logJSON {
		lh = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		lh = slog.NewTextHandler(os.Stderr, nil)
	}
	serve.SetLogger(slog.New(lh))

	if *sample || *traceOut != "" {
		obs.SetSampling(true)
	}
	if *traceOut != "" {
		workers := *threads
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		obs.EnableTracing(workers, 1<<14)
	}

	reg := serve.NewRegistry(serve.Options{
		Threads:      *threads,
		TuneCacheDir: *tuneCache,
		Window:       *window,
		MaxBatch:     *maxBatch,
		QueueDepth:   *queue,
	})
	srv := serve.NewServer(reg, serve.ServerOptions{MaxInflight: *maxInflight})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	hs := newHTTPServer(srv)
	log.Printf("symspmv-serve %s listening on http://%s", buildinfo.Commit(), ln.Addr())

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %v: draining (in-flight requests finish, new ones get 503)", s)
	case err := <-done:
		log.Fatalf("serve: %v", err)
	}

	srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v (forcing close)", err)
		hs.Close()
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	reg.Close()
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Printf("trace-out: %v", err)
		} else {
			if err := obs.WriteTrace(f); err != nil {
				log.Printf("trace-out: %v", err)
			}
			f.Close()
			log.Printf("wrote trace to %s", *traceOut)
		}
	}
	log.Printf("drained cleanly")
}
