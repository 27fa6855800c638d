// Command spmv-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	spmv-bench -exp fig9                 # one experiment
//	spmv-bench -exp all -scale 0.1      # the whole evaluation
//	spmv-bench -exp host                 # wall-clock measurement on this host
//	spmv-bench -list                     # available experiments
//
// Modeled experiments build every data structure for real (encoding,
// symbolic analysis, reordering) and evaluate timing through the platform
// performance model of internal/perfmodel; host experiments time the real
// kernels on the machine running the command.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list)")
		format   = flag.String("format", "", "\"auto\" runs the empirical autotuner on the suite (same as -exp autotune)")
		scale    = flag.Float64("scale", 0.1, "suite scale: 1.0 = the paper's matrix sizes")
		matrices = flag.String("matrices", "", "comma-separated subset of suite matrices (default all 12)")
		iters    = flag.Int("iters", 128, "SpM×V operations per measurement (§V-A protocol)")
		nv       = flag.Int("nv", 0, "multi-RHS width: autotune tunes for it, host times MulMat and the SSS phases at it (0 = defaults)")
		cgIters  = flag.Int("cg-iters", 2048, "CG iterations for fig14")
		csvDir   = flag.String("csv", "", "also write each result table as CSV into this directory")
		list     = flag.Bool("list", false, "list experiments and suite matrices, then exit")
		quiet    = flag.Bool("q", false, "suppress progress logging")

		metricsAddr = flag.String("metrics-addr", "", "serve telemetry on this address (/metrics, /debug/vars, /debug/pprof); enables sampling")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace_event JSON file of the run (perfetto-loadable); enables sampling")
		version     = flag.Bool("version", false, "print version/provenance and exit")
	)
	flag.Parse()
	if *version {
		fmt.Print(buildinfo.Version("spmv-bench"))
		return
	}

	if *metricsAddr != "" || *traceOut != "" {
		obs.SetSampling(true)
	}
	if *traceOut != "" {
		// Host experiments spin pools of up to 24 workers; 32 lanes covers
		// every thread count the harness sweeps, plus the coordinator.
		obs.EnableTracing(32, 1<<13)
	}
	if *metricsAddr != "" {
		srv, err := obs.StartServer(*metricsAddr)
		if err != nil {
			log.Fatalf("starting telemetry server: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics\n", srv.Addr())
	}

	if *list {
		fmt.Println("experiments:", strings.Join(harness.ExperimentNames(), " "))
		return
	}
	if *format != "" {
		if !strings.EqualFold(*format, "auto") {
			fmt.Fprintf(os.Stderr, "spmv-bench: -format only accepts \"auto\" (fixed formats are picked per experiment; see cg-solve for single-kernel runs)\n")
			os.Exit(2)
		}
		*exp = "autotune"
	}

	cfg := harness.Config{
		Scale:        *scale,
		Iterations:   *iters,
		CGIterations: *cgIters,
		NV:           *nv,
	}
	if *matrices != "" {
		cfg.Matrices = strings.Split(*matrices, ",")
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	var extra []string
	if *csvDir != "" {
		extra = append(extra, *csvDir)
	}
	if err := harness.Run(*exp, cfg, os.Stdout, extra...); err != nil {
		fmt.Fprintln(os.Stderr, "spmv-bench:", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("creating trace file: %v", err)
		}
		if err := obs.WriteTrace(f); err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("closing trace file: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s (load in https://ui.perfetto.dev)\n", *traceOut)
	}
}
