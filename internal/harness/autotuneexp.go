package harness

import (
	"fmt"
	"time"

	"repro/internal/autotune"
)

// Autotune runs the empirical plan search (internal/autotune) on every
// suite matrix and renders each Decision report as a table: one row per
// candidate with its modeled prediction, measured micro-trial time, build
// cost, and fate. This is the driver behind `spmv-bench -format auto` and
// `make tune-demo`.
func Autotune(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
	cfg = cfg.withDefaults()
	var tables []*Table
	for _, sm := range suite {
		t0 := time.Now()
		d, err := autotune.Tune(
			autotune.Problem{Matrix: sm.Matrix, Stats: sm.Stats},
			autotune.Options{Log: cfg.Log, NV: cfg.NV},
		)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sm.Spec.Name, err)
		}
		cfg.logf("autotuned %-14s -> %v in %v", sm.Spec.Name, d.Plan, time.Since(t0).Round(time.Millisecond))
		t := &Table{
			Title: fmt.Sprintf("Autotune — %s (scale %g, host)", sm.Spec.Name, cfg.Scale),
			Note: fmt.Sprintf("chosen plan: %v — %d micro-trials in %v",
				d.Plan, d.Trials, d.Elapsed.Round(time.Millisecond)),
			Header: []string{"candidate", "threads", "rcm", "modeled us/op", "measured us/op", "preproc ms", "status"},
		}
		for _, c := range d.Candidates {
			meas, prep, rcm := "-", "-", ""
			if c.MeasuredNs > 0 {
				meas = fmt.Sprintf("%.1f", c.MeasuredNs/1e3)
			}
			if c.PreprocNs > 0 {
				prep = fmt.Sprintf("%.1f", c.PreprocNs/1e6)
			}
			if c.Reorder {
				rcm = "yes"
			}
			t.Rows = append(t.Rows, []string{
				c.Format.String(),
				fmt.Sprintf("%d", c.Threads),
				rcm,
				fmt.Sprintf("%.1f", c.ModeledSeconds*1e6),
				meas,
				prep,
				c.Status,
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}
