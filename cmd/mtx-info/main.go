// Command mtx-info prints structural statistics and per-format encoded
// sizes for a Matrix Market file — a single-matrix Table I row.
//
// Usage:
//
//	mtx-info matrix.mtx [matrix2.mtx ...]
//	mtx-info -formats matrix.mtx     # also encode CSX/CSX-Sym and report C.R.
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"
	"strings"

	symspmv "repro"
	"repro/internal/attrib"
	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/csx"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
	"repro/internal/stream"
)

func main() {
	formats := flag.Bool("formats", false, "encode all formats and report sizes")
	threads := flag.Int("threads", 4, "worker threads for format encoding")
	dump := flag.Int("dump", 0, "dump the first N CSX-Sym ctl units (teaching/debug aid)")
	roofline := flag.Bool("roofline", false, "predict per-method traffic and roofline time against this machine's measured STREAM bandwidth (offline triage; no solve needed)")
	version := flag.Bool("version", false, "print version/provenance and exit")
	flag.Parse()
	if *version {
		fmt.Print(buildinfo.Version("mtx-info"))
		return
	}
	if flag.NArg() == 0 {
		log.Fatal("usage: mtx-info [-formats] [-roofline] file.mtx ...")
	}
	for _, path := range flag.Args() {
		A, err := symspmv.ReadMatrixMarketFile(path)
		if err != nil {
			log.Fatal(err)
		}
		st := A.Stats()
		fmt.Printf("%s:\n  %s\n  class: %s\n", path, st, A.SymmetryClass())
		if *dump > 0 {
			if err := dumpUnits(path, *dump, *threads); err != nil {
				log.Fatal(err)
			}
		}
		if *formats {
			// Skew and structural matrices cannot encode CSX-Sym; stick to
			// the formats their class supports.
			list := []symspmv.Format{
				symspmv.CSR, symspmv.CSX, symspmv.SSSIndexed, symspmv.CSXSym,
			}
			if A.SymmetryClass() != "symmetric" {
				list = []symspmv.Format{symspmv.CSR, symspmv.CSX, symspmv.SSSIndexed}
			}
			for _, f := range list {
				k, err := A.Kernel(f, symspmv.Threads(*threads))
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  %-12s %12d bytes  C.R. %5.1f%%\n",
					f, k.Bytes(), 100*(1-float64(k.Bytes())/float64(st.CSRBytes)))
				k.Close()
			}
		}
		if *roofline {
			if err := rooflineTable(path, *threads); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// rooflineTable predicts, per kernel method, the traffic of one SpM×V and
// the memory-roofline floor it implies on THIS machine: predicted bytes over
// the measured STREAM triad bandwidth of a threads-wide pool. The same
// numbers the live attribution engine uses as denominators, computed without
// a solve — offline triage for "how fast could this matrix possibly go here,
// and in which phase would the time sit". Below the effective-ranges and
// indexed rows it prints, per thread, the rows the split cells run with the
// local loop, out of the thread's rows.
func rooflineTable(path string, threads int) error {
	c, err := matrix.ReadMatrixMarketFile(path)
	if err != nil {
		return err
	}
	cl := c
	if !cl.Symmetric {
		if cl, err = cl.ToLowerSymmetric(); err != nil {
			return err
		}
	}
	s, err := core.FromCOO(cl)
	if err != nil {
		return err
	}
	pool := parallel.NewPool(threads)
	defer pool.Close()
	bw := stream.GB(attrib.Calibrate(pool).Triad) // GB/s ≡ bytes/ns
	fmt.Printf("  roofline: STREAM triad %.1f GB/s at %d threads\n", bw, threads)
	fmt.Printf("  %-22s %12s %12s %12s %10s %10s\n",
		"method", "mult bytes", "red bytes", "total", "floor µs", "≤ Gflop/s")

	row := func(cost perfmodel.SpMVCost) {
		total := cost.MultBytes + cost.RedBytes
		us := float64(total) / bw / 1e3 // bytes / (bytes/ns) = ns
		gf := 0.0
		if us > 0 {
			gf = float64(cost.UsefulFlops) / (us * 1e3)
		}
		fmt.Printf("  %-22s %12d %12d %12d %10.1f %10.2f\n",
			cost.Name, cost.MultBytes, cost.RedBytes, total, us, gf)
	}

	row(perfmodel.CSRCost(csr.FromCOO(c)))
	for _, m := range []core.ReductionMethod{core.Naive, core.EffectiveRanges, core.Indexed, core.Colored} {
		k := core.NewKernel(s, m, pool)
		row(perfmodel.SSSCost(k))
		if split := k.SplitRows(); split != nil {
			cells := make([]string, len(split))
			for t, n := range split {
				cells[t] = fmt.Sprintf("%d/%d", n, k.Part.End[t]-k.Part.Start[t])
			}
			fmt.Printf("  %-22s split rows %s\n", "", strings.Join(cells, " · "))
		}
	}
	return nil
}

// dumpUnits re-reads the matrix at the internal level and prints the unit
// mix of each CSX-Sym blob, serial and at the given thread count, and the
// head of the serially encoded ctl stream.
func dumpUnits(path string, n, threads int) error {
	c, err := matrix.ReadMatrixMarketFile(path)
	if err != nil {
		return err
	}
	if !c.Symmetric {
		if c, err = c.ToLowerSymmetric(); err != nil {
			return err
		}
	}
	s, err := core.FromCOO(c)
	if err != nil {
		return err
	}
	if s.Kind != core.Sym {
		return fmt.Errorf("-dump: CSX-Sym encodes only symmetric matrices, got a %s one", s.Kind)
	}
	for _, p := range slices.Compact([]int{1, threads}) {
		fmt.Printf("  unit mix the CSX-Sym kernel runs over (%d-thread encoding, per blob):\n", p)
		for _, b := range csx.NewSym(s, p, core.Indexed, csx.DefaultOptions()).Blobs {
			fmt.Print(indent(csx.UnitMix(b)))
		}
	}
	sm := csx.NewSym(s, 1, core.Indexed, csx.DefaultOptions())
	fmt.Printf("  first %d ctl units (serial encoding):\n", n)
	fmt.Print(indent(csx.UnitDump(sm.Blobs[0], n)))
	return nil
}

// indent puts every line of s, which is empty or ends in a newline, four
// columns in.
func indent(s string) string {
	if s == "" {
		return ""
	}
	return "    " + strings.ReplaceAll(strings.TrimSuffix(s, "\n"), "\n", "\n    ") + "\n"
}
