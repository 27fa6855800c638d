package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// experiments maps experiment ids to drivers producing result tables.
var experiments = map[string]func(cfg Config, suite []*SuiteMatrix) ([]*Table, error){
	"table1": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		return []*Table{TableI(cfg, suite)}, nil
	},
	"table2": func(cfg Config, _ []*SuiteMatrix) ([]*Table, error) {
		return []*Table{TableII(cfg)}, nil
	},
	"fig4": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		return []*Table{Fig4(cfg, suite)}, nil
	},
	"fig5": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		return []*Table{Fig5(cfg, suite)}, nil
	},
	"fig9": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		return Fig9(cfg, suite), nil
	},
	"fig10": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		return []*Table{Fig10(cfg, suite)}, nil
	},
	"fig11": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		return Fig11(cfg, suite), nil
	},
	"fig12": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		return []*Table{Fig12(cfg, suite)}, nil
	},
	"table3": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		t, err := TableIII(cfg, suite)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	},
	"fig13": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		t, err := Fig13(cfg, suite)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	},
	"preproc": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		return []*Table{PreprocCost(cfg, suite)}, nil
	},
	"fig14": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		t, err := Fig14(cfg, suite)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	},
	"ablation-csx": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		return []*Table{AblationCSX(cfg, suite)}, nil
	},
	"colored": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		tables := ColoredSpeedup(cfg, suite)
		rcm, err := ColoredRCM(cfg, suite)
		if err != nil {
			return nil, err
		}
		return append(tables, rcm), nil
	},
	"phases": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		return []*Table{PhaseBreakdown(cfg, suite)}, nil
	},
	"spmm-bench": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		t, err := SpMMBench(cfg, suite)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	},
	"spmm-smoke": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		t, err := SpMMSmoke(cfg, suite)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	},
	"host": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		return []*Table{HostMeasured(cfg, suite, 0)}, nil
	},
	"autotune": Autotune,
	"hostcg": func(cfg Config, suite []*SuiteMatrix) ([]*Table, error) {
		return []*Table{HostCG(cfg, suite, 0, 64)}, nil
	},
}

// ExperimentNames lists the runnable experiment ids in a stable order.
func ExperimentNames() []string {
	names := make([]string, 0, len(experiments)+1)
	for n := range experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return append(names, "all")
}

// paperOrder is the presentation order used by "all".
var paperOrder = []string{
	"table1", "table2", "fig4", "fig5", "fig9", "fig10", "fig11", "fig12",
	"table3", "fig13", "preproc", "fig14",
	"ablation-csx", "colored", "phases",
}

// Run executes one experiment (or "all") against a freshly loaded suite,
// printing tables to w. If csvDir is non-empty, each table is additionally
// written there as <slug>.csv.
func Run(name string, cfg Config, w io.Writer, csvDir ...string) error {
	cfg = cfg.withDefaults()
	names := []string{name}
	if name == "all" {
		names = paperOrder
	}
	needSuite := false
	for _, n := range names {
		if n != "table2" {
			needSuite = true
		}
		if _, ok := experiments[n]; !ok {
			return fmt.Errorf("harness: unknown experiment %q (have %v)", n, ExperimentNames())
		}
	}
	var suite []*SuiteMatrix
	if needSuite {
		var err error
		suite, err = LoadSuite(cfg)
		if err != nil {
			return err
		}
	}
	dir := ""
	if len(csvDir) > 0 {
		dir = csvDir[0]
	}
	for _, n := range names {
		tables, err := experiments[n](cfg, suite)
		if err != nil {
			return fmt.Errorf("harness: experiment %s: %w", n, err)
		}
		for _, t := range tables {
			t.Fprint(w)
			if dir != "" {
				if err := writeCSVFile(dir, t); err != nil {
					return fmt.Errorf("harness: experiment %s: %w", n, err)
				}
			}
		}
	}
	return nil
}

func writeCSVFile(dir string, t *Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, t.SlugTitle()+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
