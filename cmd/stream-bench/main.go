// Command stream-bench measures the host's sustained memory bandwidth with
// the STREAM copy/scale/add/triad kernels — the Table II calibration probe.
//
// Usage:
//
//	stream-bench [-n 8388608] [-threads 0] [-reps 5]
package main

import (
	"flag"
	"fmt"
	"runtime"

	"repro/internal/buildinfo"
	"repro/internal/parallel"
	"repro/internal/stream"
)

func main() {
	n := flag.Int("n", 8<<20, "elements per array (8 bytes each; use >> LLC)")
	threads := flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	reps := flag.Int("reps", 5, "repetitions; best rate is reported (STREAM methodology)")
	version := flag.Bool("version", false, "print version/provenance and exit")
	flag.Parse()
	if *version {
		fmt.Print(buildinfo.Version("stream-bench"))
		return
	}
	if *threads <= 0 {
		*threads = runtime.GOMAXPROCS(0)
	}
	pool := parallel.NewPool(*threads)
	defer pool.Close()

	res := stream.Run(pool, *n, *reps)
	fmt.Printf("STREAM-like benchmark: %d threads, 3 arrays × %.1f MiB\n",
		res.Threads, float64(res.ArrayBytes)/(1<<20))
	fmt.Printf("  copy:  %7.2f GB/s\n", stream.GB(res.Copy))
	fmt.Printf("  scale: %7.2f GB/s\n", stream.GB(res.Scale))
	fmt.Printf("  add:   %7.2f GB/s\n", stream.GB(res.Add))
	fmt.Printf("  triad: %7.2f GB/s\n", stream.GB(res.Triad))
}
