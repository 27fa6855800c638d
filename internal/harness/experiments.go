package harness

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/csx"
	"repro/internal/format"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
	"repro/internal/stream"
)

// TableI reproduces Table I: the matrix suite with sizes and the CSX-Sym
// and maximum symmetric compression ratios. The compression ratio is
// computed at 16 threads (CSX-Sym is a per-thread format; the partition
// affects only the boundary-straddling rejections, a second-order effect).
func TableI(cfg Config, suite []*SuiteMatrix) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "Table I — matrix suite and compression ratios",
		Note: fmt.Sprintf("synthetic analogs at scale %.3g; C.R. excludes the reduction-phase index, as in the paper",
			cfg.Scale),
		Header: []string{"Matrix", "Rows", "Nonzeros", "Size(CSR)", "C.R.(CSX-Sym)", "C.R.(Max)", "Problem"},
	}
	pool := parallel.NewPool(16)
	defer pool.Close()
	for _, sm := range suite {
		cfg.logf("table1: encoding %s", sm.Spec.Name)
		smx := Build(sm, format.CSXSym, pool).Sym
		t.Rows = append(t.Rows, []string{
			sm.Spec.Name,
			fmt.Sprintf("%d", sm.Stats.Rows),
			fmt.Sprintf("%d", sm.Stats.LogicalNNZ),
			matrix.FormatBytes(sm.Stats.CSRBytes),
			fmt.Sprintf("%.1f%%", 100*smx.CompressionRatio()),
			fmt.Sprintf("%.1f%%", 100*csx.MaxSymCompressionRatio(smx.NNZLower(), smx.N)),
			sm.Spec.Problem,
		})
	}
	return t
}

// TableII reproduces Table II: the modeled platforms, plus a STREAM triad
// measurement of the host the reproduction is running on (the model's
// calibration evidence).
func TableII(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Table II — experimental platforms (modeled) and host calibration",
		Header: []string{"Platform", "Cores/Threads", "Clock", "Sockets", "Sustained B/W", "Barrier@max"},
	}
	for _, pl := range perfmodel.Platforms {
		t.Rows = append(t.Rows, []string{
			pl.Name,
			fmt.Sprintf("%d/%d", pl.Cores, pl.ThreadsMax),
			fmt.Sprintf("%.2f GHz", pl.ClockGHz),
			fmt.Sprintf("%d", pl.Sockets),
			fmt.Sprintf("%.1f GB/s", pl.Bandwidth(pl.ThreadsMax)),
			fmt.Sprintf("%.1f µs", pl.BarrierSeconds(pl.ThreadsMax)*1e6),
		})
	}
	// Host STREAM: arrays of 32 MiB per vector exceed typical LLCs.
	threads := runtime.GOMAXPROCS(0)
	pool := parallel.NewPool(threads)
	defer pool.Close()
	res := stream.Run(pool, 4<<20, 3)
	t.Rows = append(t.Rows, []string{
		"host (measured)",
		fmt.Sprintf("%d/%d", threads, threads),
		"-", "-",
		fmt.Sprintf("%.1f GB/s (triad)", stream.GB(res.Triad)),
		"-",
	})
	return t
}

// Fig4 reproduces Fig. 4: the density of the effective regions of the local
// vectors versus thread count, per matrix and suite average, up to 256
// threads. Pure symbolic analysis of the real matrices.
func Fig4(cfg Config, suite []*SuiteMatrix) *Table {
	cfg = cfg.withDefaults()
	threadCounts := []int{2, 4, 8, 16, 24, 32, 64, 128, 256}
	t := &Table{
		Title:  "Fig. 4 — density of the effective regions of local vectors (%)",
		Header: []string{"Matrix"},
	}
	for _, p := range threadCounts {
		t.Header = append(t.Header, fmt.Sprintf("p=%d", p))
	}
	avg := make([]float64, len(threadCounts))
	for _, sm := range suite {
		cfg.logf("fig4: %s", sm.Spec.Name)
		row := []string{sm.Spec.Name}
		for i, p := range threadCounts {
			_, _, d := core.ConflictIndexDensity(sm.S, p)
			avg[i] += d
			row = append(row, fmt.Sprintf("%.1f", 100*d))
		}
		t.Rows = append(t.Rows, row)
	}
	row := []string{"AVERAGE"}
	for i := range threadCounts {
		row = append(row, fmt.Sprintf("%.1f", 100*avg[i]/float64(len(suite))))
	}
	t.Rows = append(t.Rows, row)
	return t
}

// Fig5 reproduces Fig. 5: the workload overhead of the reduction phase,
// relative to the serial SSS kernel's traffic, for the three local-vector
// methods as the thread count grows (Dunnington's 1–24 range).
func Fig5(cfg Config, suite []*SuiteMatrix) *Table {
	cfg = cfg.withDefaults()
	threadCounts := []int{2, 4, 8, 12, 16, 20, 24}
	t := &Table{
		Title:  "Fig. 5 — reduction-phase workload overhead over serial SSS (%), suite average",
		Note:   "overhead = reduction-phase bytes / serial SSS kernel bytes; Eqs. (3)-(6)",
		Header: []string{"Method"},
	}
	for _, p := range threadCounts {
		t.Header = append(t.Header, fmt.Sprintf("p=%d", p))
	}
	methods := []format.ID{format.SSSNaive, format.SSSEffective, format.SSSIndexed}
	rows := make([][]float64, len(methods))
	for i := range rows {
		rows[i] = make([]float64, len(threadCounts))
	}
	for _, sm := range suite {
		cfg.logf("fig5: %s", sm.Spec.Name)
		serial := core.SerialTraffic(sm.S)
		serialBytes := float64(serial.MultMatrixBytes + serial.MultVectorBytes)
		for pi, p := range threadCounts {
			costs := modelCosts(sm, methods, p)
			for mi, f := range methods {
				rows[mi][pi] += float64(costs[f].RedBytes) / serialBytes
			}
		}
	}
	for mi, method := range methods {
		row := []string{method.String()}
		for pi := range threadCounts {
			row = append(row, fmt.Sprintf("%.1f", 100*rows[mi][pi]/float64(len(suite))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
