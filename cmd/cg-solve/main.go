// Command cg-solve solves A·x = b for a symmetric positive definite Matrix
// Market system with the Conjugate Gradient method, choosing any of the
// library's storage formats for the SpM×V kernel.
//
// Usage:
//
//	cg-solve -format sss-idx -threads 4 matrix.mtx
//	cg-solve -format csx-sym -tol 1e-10 -maxiter 5000 matrix.mtx
//	cg-solve -format auto matrix.mtx              # empirical autotuning
//	cg-solve -format sss-idx -nv 8 matrix.mtx     # block CG
//
// With -format auto the library measures its way to the best format, thread
// count, and reorder decision for this matrix on this machine, and caches
// the plan on disk (see -tune-cache) so repeat solves skip the search.
//
// The right-hand side is b = A·1 (so the exact solution is the ones vector)
// unless -rhs-ones is disabled, in which case b is a deterministic
// pseudo-random vector.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	symspmv "repro"
	"repro/internal/buildinfo"
	formats "repro/internal/format"
	"repro/internal/obs"
)

func main() {
	format := flag.String("format", "sss-idx", "kernel format: auto, or any name symspmv.ParseFormat accepts, in any case ("+strings.Join(formats.Names(), ", ")+")")
	threads := flag.Int("threads", 4, "worker threads (with -format auto: the cap on searched thread counts)")
	tol := flag.Float64("tol", 1e-10, "relative residual target")
	maxIter := flag.Int("maxiter", 0, "iteration cap (0 = 10·N)")
	rhsOnes := flag.Bool("rhs-ones", true, "b = A·1 (exact solution known); false: pseudo-random b")
	jacobi := flag.Bool("jacobi", false, "use Jacobi (diagonal) preconditioning: the same fused iteration, plus one multiply per element")
	nv := flag.Int("nv", 1, "solve nv right-hand sides simultaneously with block CG (streams the matrix once per iteration; needs an SpMM-capable format)")
	cache := flag.String("cache", "", "CSX-Sym kernel cache file: loaded if present, written after encoding (csx-sym only)")
	tuneCache := flag.String("tune-cache", "", "tuning-cache directory for -format auto (default: the user cache dir; \"off\" disables)")
	verbose := flag.Bool("v", false, "print the autotune decision report (-format auto)")
	metricsAddr := flag.String("metrics-addr", "", "serve telemetry on this address (/metrics, /debug/vars, /debug/pprof); enables sampling")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file of the solve (perfetto-loadable); enables sampling")
	linger := flag.Duration("linger", 0, "keep the process (and -metrics-addr endpoint) alive this long after the solve")
	timeout := flag.Duration("timeout", 0, "abort the solve after this wall-clock budget (typed context.DeadlineExceeded; 0 = no limit)")
	version := flag.Bool("version", false, "print version/provenance and exit")
	flag.Parse()
	if *version {
		fmt.Print(buildinfo.Version("cg-solve"))
		return
	}
	if flag.NArg() != 1 {
		log.Fatal("usage: cg-solve [flags] matrix.mtx")
	}
	if *metricsAddr != "" || *traceOut != "" {
		obs.SetSampling(true)
	}
	if *traceOut != "" {
		// One lane per worker plus the coordinator; 16k spans per lane keeps
		// the newest few thousand iterations of even a small system.
		obs.EnableTracing(*threads, 1<<14)
	}
	var srv *obs.Server
	if *metricsAddr != "" {
		var serr error
		srv, serr = obs.StartServer(*metricsAddr)
		if serr != nil {
			log.Fatalf("starting telemetry server: %v", serr)
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s/metrics\n", srv.Addr())
	}

	auto := strings.EqualFold(*format, "auto")
	var f symspmv.Format
	if !auto {
		var perr error
		if f, perr = symspmv.ParseFormat(*format); perr != nil {
			log.Fatalf("cg-solve: %v", perr)
		}
	}

	A, err := symspmv.ReadMatrixMarketFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	if cls := A.SymmetryClass(); cls != "symmetric" {
		// Fail before any kernel is built: CG needs an SPD operator, which a
		// skew-symmetric (xᵀAx = 0) or structurally-symmetric (A ≠ Aᵀ)
		// matrix can never be. spmv-bench runs these classes; cg-solve
		// cannot.
		log.Fatalf("cg-solve: CG requires a symmetric positive definite system, but %s is %s", flag.Arg(0), cls)
	}
	fmt.Printf("matrix: %s\n", A.Stats())

	t0 := time.Now()
	var k symspmv.Kernel
	built := "built"
	if auto {
		opts := []symspmv.AutoOption{symspmv.AutoMaxThreads(*threads)}
		if *nv > 1 {
			opts = append(opts, symspmv.AutoVectors(*nv))
		}
		switch *tuneCache {
		case "":
		case "off":
			opts = append(opts, symspmv.AutoNoCache())
		default:
			opts = append(opts, symspmv.AutoCacheDir(*tuneCache))
		}
		if *verbose {
			opts = append(opts, symspmv.AutoLog(os.Stderr))
		}
		var d *symspmv.Decision
		k, d, err = symspmv.AutoKernel(A, opts...)
		if err != nil {
			log.Fatal(err)
		}
		built = fmt.Sprintf("autotuned (%d trials)", d.Trials)
		if d.CacheHit {
			built = "autotuned (tuning cache hit)"
		}
		if *verbose {
			fmt.Print(d.Report())
			cs := symspmv.AutoCacheStats()
			fmt.Printf("tuning cache: hits=%d plain-misses=%d corrupt-misses=%d\n",
				cs.Hits, cs.Misses, cs.CorruptMisses)
		}
	} else {
		if *cache != "" && f == symspmv.CSXSym {
			if loaded, lerr := symspmv.LoadCSXSymKernel(*cache); lerr == nil {
				k, built = loaded, "loaded from cache"
			}
		}
		if k == nil {
			k, err = A.Kernel(f, symspmv.Threads(*threads))
			if err != nil {
				log.Fatal(err)
			}
			if *cache != "" && f == symspmv.CSXSym {
				if serr := symspmv.SaveKernel(k, *cache); serr != nil {
					log.Printf("warning: writing cache: %v", serr)
				} else {
					built += ", cache written"
				}
			}
		}
	}
	defer k.Close()
	fmt.Printf("kernel: %v, %d threads, %d bytes, %s in %v\n",
		k.Format(), k.Threads(), k.Bytes(), built, time.Since(t0).Round(time.Millisecond))

	if obs.SamplingEnabled() {
		// Roofline attribution: STREAM-calibrate now (kernel idle) and feed
		// every sampled op into symspmv_attrib_* and /debug/attrib.
		if bound, aerr := symspmv.EnableAttribution(k); aerr != nil {
			log.Printf("warning: attribution: %v", aerr)
		} else if bound {
			fmt.Printf("attrib: roofline attribution on (/debug/attrib)\n")
		}
	}

	n := A.N()
	b := make([]float64, n)
	if *rhsOnes {
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		A.MulVec(ones, b)
	} else {
		for i := range b {
			b[i] = math.Sin(float64(3*i + 1))
		}
	}

	solveCtx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		solveCtx, cancel = context.WithTimeout(solveCtx, *timeout)
		defer cancel()
	}
	cgOpts := symspmv.CGOptions{Tol: *tol, MaxIter: *maxIter, Context: solveCtx}

	if *nv > 1 {
		// Block mode: lane v solves A·x = (v+1)·b, so with -rhs-ones the
		// exact solution of lane v is the constant vector v+1 and the check
		// stays meaningful per lane. All lanes share one SpMM per iteration.
		if *jacobi {
			log.Fatal("cg-solve: -jacobi is single-vector; drop it or use -nv 1")
		}
		w := *nv
		bM := make([]float64, n*w)
		xM := make([]float64, n*w)
		for i := 0; i < n; i++ {
			for v := 0; v < w; v++ {
				bM[i*w+v] = float64(v+1) * b[i]
			}
		}
		bres, berr := symspmv.SolveCGBlock(k, bM, xM, w, cgOpts)
		if berr != nil {
			log.Fatal(berr)
		}
		fmt.Printf("solve:  %s\n", bres)
		if *rhsOnes {
			for v := 0; v < w; v++ {
				worst := 0.0
				for i := 0; i < n; i++ {
					if d := math.Abs(xM[i*w+v] - float64(v+1)); d > worst {
						worst = d
					}
				}
				fmt.Printf("check:  lane %d: max |x_i - %d| = %.2e\n", v, v+1, worst)
			}
		}
	} else {
		x := make([]float64, n)
		var res symspmv.CGResult
		if *jacobi {
			res, err = symspmv.SolveCGJacobi(A, k, b, x, cgOpts)
		} else {
			res, err = symspmv.SolveCG(k, b, x, cgOpts)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("solve:  %s\n", res)
		if *rhsOnes {
			worst := 0.0
			for i := range x {
				if d := math.Abs(x[i] - 1); d > worst {
					worst = d
				}
			}
			fmt.Printf("check:  max |x_i - 1| = %.2e\n", worst)
		}
	}

	if *traceOut != "" {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			log.Fatalf("creating trace file: %v", ferr)
		}
		if werr := obs.WriteTrace(f); werr != nil {
			log.Fatalf("writing trace: %v", werr)
		}
		if cerr := f.Close(); cerr != nil {
			log.Fatalf("closing trace file: %v", cerr)
		}
		fmt.Printf("trace:  %s (load in https://ui.perfetto.dev)\n", *traceOut)
	}
	if *linger > 0 {
		fmt.Printf("lingering %v for scrapes...\n", *linger)
		time.Sleep(*linger)
	}
}
