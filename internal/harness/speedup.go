package harness

import (
	"fmt"

	"repro/internal/format"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

// modelCosts builds the kernels for the given formats at thread count p and
// returns their cost accounts. Kernels are fully constructed (encoding,
// symbolic analysis) — only the timing is modeled.
func modelCosts(sm *SuiteMatrix, formats []format.ID, p int) map[format.ID]perfmodel.SpMVCost {
	pool := parallel.NewPool(p)
	defer pool.Close()
	out := make(map[format.ID]perfmodel.SpMVCost, len(formats))
	for _, f := range formats {
		out[f] = Cost(sm, f, pool)
	}
	return out
}

// serialCSRSeconds predicts the single-thread CSR kernel on pl — the
// speedup baseline of Figs. 9 and 11.
func serialCSRSeconds(sm *SuiteMatrix, pl perfmodel.Platform) float64 {
	return perfmodel.CSRCost(sm.CSR).SerialSeconds(pl)
}

// speedupTables renders, for each platform, the suite-geometric-mean modeled
// speedup over serial CSR for every format across the thread sweep. Platform
// caches are scaled with the suite so locality effects mirror full size.
func speedupTables(cfg Config, suite []*SuiteMatrix, formats []format.ID, title string) []*Table {
	cfg = cfg.withDefaults()
	var tables []*Table
	for _, basePl := range perfmodel.Platforms {
		pl := basePl.WithCacheScale(cfg.Scale)
		threads := cfg.threadsFor(pl)
		t := &Table{
			Title:  fmt.Sprintf("%s — %s (modeled speedup over serial CSR, suite geomean)", title, pl.Name),
			Header: []string{"Format"},
		}
		for _, p := range threads {
			t.Header = append(t.Header, fmt.Sprintf("p=%d", p))
		}
		// speed[f][pi] collects per-matrix speedups.
		speed := make(map[format.ID][][]float64, len(formats))
		for _, f := range formats {
			speed[f] = make([][]float64, len(threads))
		}
		for _, sm := range suite {
			cfg.logf("%s/%s: %s", title, pl.Name, sm.Spec.Name)
			base := serialCSRSeconds(sm, pl)
			for pi, p := range threads {
				costs := modelCosts(sm, formats, p)
				for _, f := range formats {
					speed[f][pi] = append(speed[f][pi], base/costs[f].Seconds(pl, p))
				}
			}
		}
		for _, f := range formats {
			row := []string{f.String()}
			for pi := range threads {
				row = append(row, fmt.Sprintf("%.2f", geomean(speed[f][pi])))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)

		// Per-matrix panel at the platform's featured thread count (the
		// paper's figures are per-matrix line charts; this is their
		// right-hand endpoint).
		featured := threads[len(threads)-1]
		pm := &Table{
			Title:  fmt.Sprintf("%s — %s, per-matrix speedup at %d threads", title, pl.Name, featured),
			Header: append([]string{"Matrix"}, labels(formats)...),
		}
		pi := len(threads) - 1
		for si, sm := range suite {
			row := []string{sm.Spec.Name}
			for _, f := range formats {
				row = append(row, fmt.Sprintf("%.2f", speed[f][pi][si]))
			}
			pm.Rows = append(pm.Rows, row)
		}
		tables = append(tables, pm)
	}
	return tables
}

func labels(formats []format.ID) []string {
	names := make([]string, len(formats))
	for i, f := range formats {
		names[i] = f.String()
	}
	return names
}

// Fig9 reproduces Fig. 9: symmetric SpM×V speedup under the three
// local-vector reduction methods versus CSR, on both platforms.
func Fig9(cfg Config, suite []*SuiteMatrix) []*Table {
	formats := []format.ID{format.CSR, format.SSSNaive, format.SSSEffective, format.SSSIndexed}
	return speedupTables(cfg, suite, formats, "Fig. 9")
}

// Fig11 reproduces Fig. 11: speedup with the CSX-Sym format against CSR,
// CSX and the optimized SSS, on both platforms.
func Fig11(cfg Config, suite []*SuiteMatrix) []*Table {
	formats := []format.ID{format.CSR, format.CSX, format.SSSIndexed, format.CSXSym}
	return speedupTables(cfg, suite, formats, "Fig. 11")
}

// Fig10 reproduces Fig. 10: the execution-time breakdown (multiplication vs
// reduction) of the symmetric SpM×V at 24 threads on Dunnington, per matrix
// and reduction method. Times are per operation, in microseconds.
func Fig10(cfg Config, suite []*SuiteMatrix) *Table {
	cfg = cfg.withDefaults()
	pl := perfmodel.Dunnington.WithCacheScale(cfg.Scale)
	const p = 24
	formats := []format.ID{format.SSSNaive, format.SSSEffective, format.SSSIndexed}
	t := &Table{
		Title: fmt.Sprintf("Fig. 10 — symmetric SpM×V time breakdown at %d threads, %s (µs/op, modeled)", p, pl.Name),
		Header: []string{"Matrix",
			"naive:mult", "naive:red", "eff:mult", "eff:red", "idx:mult", "idx:red", "CSR:total"},
	}
	for _, sm := range suite {
		cfg.logf("fig10: %s", sm.Spec.Name)
		costs := modelCosts(sm, append(formats, format.CSR), p)
		row := []string{sm.Spec.Name}
		for _, f := range formats {
			c := costs[f]
			row = append(row,
				fmt.Sprintf("%.0f", c.MultSeconds(pl, p)*1e6),
				fmt.Sprintf("%.0f", c.RedSeconds(pl, p)*1e6))
		}
		row = append(row, fmt.Sprintf("%.0f", costs[format.CSR].Seconds(pl, p)*1e6))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig12 reproduces Fig. 12: per-matrix performance (Gflop/s) of every
// format at 16 threads on Gainestown.
func Fig12(cfg Config, suite []*SuiteMatrix) *Table {
	cfg = cfg.withDefaults()
	return perMatrixGflops(cfg, suite, perfmodel.Gainestown.WithCacheScale(cfg.Scale), 16,
		"Fig. 12 — per-matrix performance at 16 threads, Gainestown (Gflop/s, modeled)")
}

// perMatrixGflops renders the Gflop/s of every format for each matrix.
func perMatrixGflops(cfg Config, suite []*SuiteMatrix, pl perfmodel.Platform, p int, title string) *Table {
	cfg = cfg.withDefaults()
	formats := []format.ID{format.CSR, format.CSX, format.SSSIndexed, format.CSXSym}
	t := &Table{Title: title, Header: []string{"Matrix"}}
	for _, f := range formats {
		t.Header = append(t.Header, f.String())
	}
	sums := make([]float64, len(formats))
	for _, sm := range suite {
		cfg.logf("%s: %s", title[:7], sm.Spec.Name)
		costs := modelCosts(sm, formats, p)
		row := []string{sm.Spec.Name}
		for fi, f := range formats {
			g := costs[f].Gflops(pl, p)
			sums[fi] += g
			row = append(row, fmt.Sprintf("%.2f", g))
		}
		t.Rows = append(t.Rows, row)
	}
	row := []string{"AVERAGE"}
	for fi := range formats {
		row = append(row, fmt.Sprintf("%.2f", sums[fi]/float64(len(suite))))
	}
	t.Rows = append(t.Rows, row)
	return t
}

// HostMeasured runs the real §V-A measurement protocol on the host machine
// for every format in the table at the host's thread count, reporting
// wall-clock Gflop/s (one sample per cell: a smoke of the real kernels, not a
// record — benchmark/ is the measured record).
func HostMeasured(cfg Config, suite []*SuiteMatrix, threads int) *Table {
	cfg = cfg.withDefaults()
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	t := &Table{
		Title: fmt.Sprintf("Host-measured SpM×V at %d thread(s) — %d iterations of the §V-A protocol (Gflop/s)",
			threads, cfg.Iterations),
		Header: []string{"Matrix"},
	}
	for _, f := range format.All() {
		t.Header = append(t.Header, f.String())
	}
	pool := parallel.NewPool(threads)
	defer pool.Close()
	for _, sm := range suite {
		row := []string{sm.Spec.Name}
		for _, f := range format.All() {
			cfg.logf("host/%s: %s", sm.Spec.Name, f)
			b := Build(sm, f, pool)
			per := perfmodel.MeasureSpMV(b.Mul, sm.S.N, cfg.Iterations)
			row = append(row, fmt.Sprintf("%.3f", perfmodel.Gflops(b.Cost(&sm.Matrix).UsefulFlops, per.Seconds())))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
