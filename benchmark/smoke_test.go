package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

// contractFile is BENCHMARK.json as the builder's contract shapes it.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) contractFile {
	t.Helper()
	text, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	if err := json.Unmarshal(text, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != contractSeconds {
		t.Errorf("run_seconds %d, the program's counts are sized for %d", c.RunSeconds, contractSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed as %q (%q), the program has %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]contractMetric(nil), c.EndToEnd...), c.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v is outside the contract's alphabet", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	hasSetup := false
	for _, m := range c.EndToEnd {
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in [0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range c.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
}

// Every workload, at a tiny scale with minimal counts, must pass its own
// checks and print exactly the listed metrics with the listed units: the
// end-to-end ones untraced, the per-layer ones traced.
func TestSmokeEveryWorkload(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			listed := c.EndToEnd
			label := w.name + "/untraced"
			if traced {
				listed, label = c.PerLayer, w.name+"/traced"
			}
			t.Run(label, func(t *testing.T) {
				res, err := run(w.tiny(), 1, 0.1, traced, t.TempDir(), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for _, m := range listed {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("listed metric %s was not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s printed in %q, listed in %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(listed) {
					for name := range res.Metrics {
						found := false
						for _, m := range listed {
							found = found || m.Name == name
						}
						if !found {
							t.Errorf("metric %s printed but not listed", name)
						}
					}
				}
			})
		}
	}
}
