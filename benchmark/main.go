// Command benchmark is the repository's performance benchmark: three stacked
// levels for the same matrix — one SpM×V, one CG solve to tolerance, one HTTP
// solve through internal/serve — measured from outside on four workloads,
// with every output checked against a reference. README.md in this directory
// has the metric tables, the estimator and how to run it; BENCHMARK.json at
// the repository root lists what it prints.
//
//	go run ./benchmark --workload stencil-scattered --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// contractSeconds is BENCHMARK.json's run_seconds: the --seconds at which the
// sample counts in workloads.go apply unscaled.
const contractSeconds = 20

// result is the one JSON object a run prints as its last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: one of the names in BENCHMARK.json")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", contractSeconds, "run length the sample counts are scaled to")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: prints the end-to-end metrics")
		outDir  = flag.String("out", "benchmark/out", "directory for generated matrices and traces")
		aa      = flag.Bool("aa", false, "run the A/A gate over every workload instead of one run")
	)
	flag.Parse()
	if *aa {
		os.Exit(runAA(os.Stdout, *seconds, *outDir))
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds/contractSeconds, *trace != 0, *outDir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one run of one workload and prints its metric table to log.
func run(w workload, seed int64, factor float64, traced bool, dir string, log io.Writer) (*result, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	r := &runner{w: w, seed: seed, threads: min(nproc, 4), dir: dir, log: log}
	stop := r.section("inputs")
	in, err := makeInputs(w, seed, dir)
	stop()
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	defer in.remove()
	var metrics []metric
	if traced {
		metrics, err = r.perLayer(in, factor)
	} else {
		metrics, err = r.endToEnd(in, factor)
	}
	if err != nil {
		return nil, err
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		if _, dup := res.Metrics[m.name]; dup {
			return nil, fmt.Errorf("metric %s printed twice", m.name)
		}
		fmt.Fprintf(log, "%-32s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	r.printWall()
	fmt.Fprintf(log, "%-32s %14d count\n%-32s %14d count\n", "ops_attempted", r.attempted, "ops_failed", r.failed)
	return res, nil
}
