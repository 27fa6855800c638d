package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// aaRuns is the number of runs per set and workload of the A/A gate: the ten
// the acceptance driver takes its quartiles over, so AA.md reads like its check.
const aaRuns = 10

// benchmarkFile is the part of BENCHMARK.json the A/A gate needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA is the A/A gate: the whole benchmark as two sets of alternating runs
// of this same binary, every run a fresh process with its own seed. It prints
// a Markdown report (checked in as AA.md) and returns the exit status: 1 when
// a workload × metric pair's set medians differ by more than the metric's
// bound, or when a set's own spread (interquartile range over median, the
// quantity the acceptance driver computes) exceeds it; setup_s is exempt from
// the spread rule, as it is there.
func runAA(out io.Writer, seconds float64, dir string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark -aa:", err)
		return 2
	}
	text, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fail(fmt.Errorf("run from the repository root: %w", err))
	}
	var bf benchmarkFile
	if err := json.Unmarshal(text, &bf); err != nil {
		return fail(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}

	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	steal := [2]map[string][]float64{{}, {}}
	var wall []float64 // wall clock of every run, for the contract's cap on the driver's total
	for i := 0; i < aaRuns; i++ {
		for _, w := range workloads {
			for j := 0; j < 2; j++ {
				set := (i + j) % 2 // alternate which set goes first
				before, t0 := readCPUStat(), time.Now()
				res, err := childRun(exe, w.name, int64(i+1), seconds, dir)
				wall = append(wall, time.Since(t0).Seconds())
				if err != nil {
					return fail(fmt.Errorf("%s seed %d: %w", w.name, i+1, err))
				}
				steal[set][w.name] = append(steal[set][w.name], stealFrac(before, readCPUStat()))
				for name, m := range res.Metrics {
					k := key{w.name, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
			}
		}
	}

	fmt.Fprintf(out, "# A/A gate\n\nTwo sets of %d alternating runs of the same binary per workload (`--seconds %g`, seeds 1..%d in both sets, one fresh process per run).\n\n", aaRuns, seconds, aaRuns)
	fmt.Fprintf(out, "- host: %d CPUs, %s\n- caches: %s\n- go: %s\n", runtime.NumCPU(), cpuModel(), cacheSizes(), runtime.Version())
	sort.Float64s(wall)
	fmt.Fprintf(out, "- wall clock of a run, set-up and checks included: median %.1f s, longest %.1f s\n\n", quantile(wall, 0.5), wall[len(wall)-1])
	fmt.Fprintf(out, "`host.steal_frac` of each run (stolen share of the CPU time the guest wanted, from /proc/stat around the run):\n\n| workload | set A | set B |\n|---|---|---|\n")
	for _, w := range workloads {
		fmt.Fprintf(out, "| %s | %s | %s |\n", w.name, fracList(steal[0][w.name]), fracList(steal[1][w.name]))
	}
	fmt.Fprintf(out, "\nspread = (Q3 − Q1) / median of a set's runs, quartiles as Python's `statistics.quantiles(values, n=4)`; diff = (median B − median A) / median A.\n\n")
	fmt.Fprintf(out, "| workload | metric | median A | spread A | median B | spread B | diff | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n")
	status := 0
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][key{w.name, m.Name}], sets[1][key{w.name, m.Name}]
			if len(a) != aaRuns || len(b) != aaRuns {
				return fail(fmt.Errorf("%s: metric %s printed in %d and %d of %d runs", w.name, m.Name, len(a), len(b), aaRuns))
			}
			medA, spreadA := medianSpread(a)
			medB, spreadB := medianSpread(b)
			diff := (medB - medA) / medA
			verdict := "ok"
			if math.Abs(diff) > m.Bound {
				verdict = "FAIL diff"
				status = 1
			} else if m.Name != "setup_s" && math.Max(spreadA, spreadB) > m.Bound {
				verdict = "FAIL spread"
				status = 1
			}
			fmt.Fprintf(out, "| %s | %s | %.6g %s | %.1f%% | %.6g %s | %.1f%% | %+.1f%% | %.1f%% | %s |\n",
				w.name, m.Name, medA, m.Unit, 100*spreadA, medB, m.Unit, 100*spreadB, 100*diff, 100*m.Bound, verdict)
		}
	}
	if status == 0 {
		fmt.Fprintf(out, "\nEvery pair is within its bound.\n")
	} else {
		fmt.Fprintf(out, "\nAt least one pair exceeds its bound.\n")
	}
	return status
}

// childRun executes one untraced run in a fresh process and parses the JSON
// object on the last line of its output.
func childRun(exe, workload string, seed int64, seconds float64, dir string) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0", "--out", dir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last line of output: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return &res, nil
}

// medianSpread returns the median of vals and (Q3 − Q1)/median.
func medianSpread(vals []float64) (median, spread float64) {
	q := quartiles(vals)
	if q[1] == 0 {
		return 0, 0
	}
	return q[1], (q[2] - q[0]) / math.Abs(q[1])
}

// quartiles reproduces Python's statistics.quantiles(vals, n=4), the default
// "exclusive" method, so the report reads like the acceptance driver's.
func quartiles(vals []float64) [3]float64 {
	data := append([]float64(nil), vals...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return [3]float64{data[0], data[0], data[0]}
	}
	const n = 4
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out
}

func fracList(v []float64) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = fmt.Sprintf("%.2f", f)
	}
	return strings.Join(parts, " ")
}

func cpuModel() string {
	text, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(text), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown CPU"
}

func cacheSizes() string {
	var parts []string
	for i := 0; i < 8; i++ {
		base := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		size, err := os.ReadFile(base + "size")
		if err != nil {
			break
		}
		level, _ := os.ReadFile(base + "level") // a missing level or type only shortens the label
		typ, _ := os.ReadFile(base + "type")
		parts = append(parts, fmt.Sprintf("L%s %s %s", strings.TrimSpace(string(level)), strings.TrimSpace(string(typ)), strings.TrimSpace(string(size))))
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, ", ")
}
