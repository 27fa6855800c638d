package core

import (
	"bufio"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestInnerLoopsCheckOnlyGatherAndScatter compiles this package with the
// compiler's bounds-check report switched on and holds lowerrow_gen.go to the
// template's claim: inside a `for ; j < jhi; j++` loop the only bounds checks
// left are on the lines the template marks `// gather` and `// scatter` —
// the data-dependent x[c], y[c], local[c] and their lane windows. ColIdx[j],
// Val[j] and UVal[j] are covered by the one proof per row; the lane loops by
// the windows' lengths. The textbook loop this replaced had six check sites
// inside its inner loop (RowPtr[r+1] among them, reloaded per non-zero); the
// scalar split cell has two in its local loop and one in each of its y loops
// (the split row's and the one past the local frontier), where x and y share
// a length and so a check; the scalar direct cell has one in each of its
// three (phase 2's deferred loop, phase 1's two y loops).
func TestInnerLoopsCheckOnlyGatherAndScatter(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to compile with")
	}
	// The go command replays a cached compile's diagnostics, so this costs
	// one extra compile of the package per change to it.
	out, err := exec.Command(goBin, "build", "-gcflags=-d=ssa/check_bce", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	reported := map[int]int{} // line of lowerrow_gen.go → checks the compiler kept on it
	site := regexp.MustCompile(`lowerrow_gen\.go:(\d+):\d+: Found Is(Slice)?InBounds`)
	for _, m := range site.FindAllStringSubmatch(string(out), -1) {
		line, _ := strconv.Atoi(m[1])
		reported[line]++
	}
	if len(reported) == 0 {
		t.Fatalf("the compiler reported no bounds check at all in lowerrow_gen.go; is -d=ssa/check_bce still its flag?\n%s", out)
	}

	f, err := os.Open("lowerrow_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var (
		fn     string
		depth  int                  // brace depth inside the current inner loop, 0 outside one
		loops  int                  // inner loops seen in the file
		perFn  = map[string][]int{} // function → checks per inner loop, in source order
		header = regexp.MustCompile(`^func \(k \*Kernel\) (\w+)\(`)
	)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		code, _, _ := strings.Cut(text, "//")
		if m := header.FindStringSubmatch(text); m != nil {
			fn = m[1]
		}
		if depth == 0 {
			if strings.TrimSpace(code) == "for ; j < jhi; j++ {" {
				depth = 1
				loops++
				perFn[fn] = append(perFn[fn], 0)
			}
			continue
		}
		depth += strings.Count(code, "{") - strings.Count(code, "}")
		if n := reported[line]; n > 0 {
			perFn[fn][len(perFn[fn])-1] += n
			if !strings.HasSuffix(text, "// gather") && !strings.HasSuffix(text, "// scatter") {
				t.Errorf("lowerrow_gen.go:%d (%s): %d bounds check(s) inside the inner loop on a line that is neither gather nor scatter:\n\t%s",
					line, fn, n, strings.TrimSpace(text))
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 18 cells: the six local ones with one loop; the six split ones with
	// two loops a row and a third, the y loop alone, for the rows past the
	// local frontier; the six direct ones with phase 2's deferred loop and
	// phase 1's two y loops (its skip over the deferred columns has no body).
	if loops != 42 {
		t.Errorf("found %d inner loops in lowerrow_gen.go, want 42: the scan no longer matches the template", loops)
	}
	if got := perFn["multiplyEffectiveT"]; len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Errorf("multiplyEffectiveT keeps %v checks in its [local, y, y past the frontier] loops, want [2 1 1]", got)
	}
	if got := perFn["multiplyColoredT"]; len(got) != 3 || got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Errorf("multiplyColoredT keeps %v checks in its [deferred, y, y past the frontier] loops, want [1 1 1]", got)
	}
}
