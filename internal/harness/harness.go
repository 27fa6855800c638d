// Package harness is the measurement framework of §V-A and the driver for
// every table and figure in the paper's evaluation: it generates the matrix
// suite, builds each storage format behind a common SpM×V interface, runs
// the 128-iteration vector-swapping measurement protocol on the host, and
// feeds the exactly-counted traffic of each configuration through the
// platform performance model to regenerate the paper's curves.
package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/format"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/perfmodel"
)

// Config selects the workload for an experiment run.
type Config struct {
	// Scale scales the suite matrices (1.0 = the paper's sizes). The
	// structure generators preserve nonzeros-per-row and structure class, so
	// the paper's shapes hold at reduced scale. Default 0.1.
	Scale float64
	// Matrices restricts the suite to the named entries (empty = all 12).
	Matrices []string
	// Iterations is the number of consecutive SpM×V operations of the
	// measurement protocol. The paper uses 128. Default 128.
	Iterations int
	// CGIterations is the fixed CG iteration count of Fig. 14. The paper
	// uses 2048. Default 2048 (the model evaluates it analytically, so the
	// count is free; host-measured CG runs scale it down).
	CGIterations int
	// Threads sweeps for the speedup figures; empty = {1,2,4,6,8,12,16,24}
	// clipped per platform.
	Threads []int
	// NV is the multi-RHS width: the autotune experiment tunes for it, and
	// the host experiment times every format's MulMat and the SSS phases at
	// it. 0/1 = single-vector.
	NV int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if c.Iterations <= 0 {
		c.Iterations = 128
	}
	if c.CGIterations <= 0 {
		c.CGIterations = 2048
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 6, 8, 12, 16, 24}
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// threadsFor clips the configured sweep to a platform's hardware threads.
func (c Config) threadsFor(pl perfmodel.Platform) []int {
	var out []int
	for _, p := range c.Threads {
		if p <= pl.ThreadsMax {
			out = append(out, p)
		}
	}
	if len(out) == 0 || out[len(out)-1] != pl.ThreadsMax {
		out = append(out, pl.ThreadsMax)
	}
	return out
}

// SuiteMatrix bundles one suite entry with its prebuilt representations:
// the COO form (symmetric lower-triangular storage), S, and CSR (the full
// expanded operator) of the embedded format.Matrix.
type SuiteMatrix struct {
	Spec gen.Spec
	format.Matrix
	Stats matrix.Stats
}

// LoadSuite generates the configured suite. Construction is deterministic.
func LoadSuite(cfg Config) ([]*SuiteMatrix, error) {
	cfg = cfg.withDefaults()
	specs := gen.PaperSuite
	if len(cfg.Matrices) > 0 {
		specs = nil
		for _, name := range cfg.Matrices {
			sp, err := gen.SpecByName(name)
			if err != nil {
				return nil, err
			}
			specs = append(specs, sp)
		}
	}
	out := make([]*SuiteMatrix, 0, len(specs))
	for _, sp := range specs {
		t0 := time.Now()
		m, err := gen.Generate(sp, cfg.Scale)
		if err != nil {
			return nil, err
		}
		s, err := core.FromCOO(m)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", sp.Name, err)
		}
		sm := suiteMatrix(sp, format.NewMatrix(s, m))
		cfg.logf("generated %-14s N=%-8d nnz=%-9d bw=%-8d in %v",
			sp.Name, sm.Stats.Rows, sm.Stats.LogicalNNZ, sm.Stats.Bandwidth,
			time.Since(t0).Round(time.Millisecond))
		out = append(out, sm)
	}
	return out, nil
}

func suiteMatrix(sp gen.Spec, fm format.Matrix) *SuiteMatrix {
	fm.CSR = csr.FromCOO(fm.COO())
	return &SuiteMatrix{Spec: sp, Matrix: fm, Stats: matrix.ComputeStats(fm.COO())}
}

// Reordered returns the RCM-permuted version of sm (§V-D).
func (sm *SuiteMatrix) Reordered() (*SuiteMatrix, error) {
	rm, _, err := sm.Matrix.Reordered()
	if err != nil {
		return nil, err
	}
	return suiteMatrix(sm.Spec, *rm), nil
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	sep := make([]string, len(t.Header))
	for i, h := range t.Header {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// WriteCSV emits the table as RFC-4180 CSV (header row first) for plotting
// the figures outside the terminal.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// SlugTitle derives a filesystem-friendly name from the table title
// ("Fig. 9 — Dunnington (...)" → "fig-9-dunnington").
func (t *Table) SlugTitle() string {
	head, _, _ := strings.Cut(t.Title, "(")
	var b strings.Builder
	lastDash := true
	for _, r := range strings.ToLower(head) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.Trim(b.String(), "-")
}

// geomean computes the geometric mean of the positive values (log-domain
// accumulation to avoid overflow).
func geomean(vals []float64) float64 {
	sum := 0.0
	n := 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// mean computes the arithmetic mean.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
