package csr

import (
	"bufio"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestInnerLoopsCheckOnlyTheGather compiles this package with the compiler's
// bounds-check report switched on and holds the generated row bodies to the
// lower-row template's claim for its gather cells: inside a
// `for ; j < jhi; j++` loop the only bounds checks left are on the line
// marked `// gather`, x[c] or its lane window; colIdx[j] and val[j] are
// covered by the one proof per row.
func TestInnerLoopsCheckOnlyTheGather(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to compile with")
	}
	out, err := exec.Command(goBin, "build", "-gcflags=-d=ssa/check_bce", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	reported := map[int]int{} // line of mul_gen.go → checks the compiler kept on it
	for _, m := range regexp.MustCompile(`mul_gen\.go:(\d+):\d+: Found Is(Slice)?InBounds`).FindAllStringSubmatch(string(out), -1) {
		line, _ := strconv.Atoi(m[1])
		reported[line]++
	}
	f, err := os.Open("mul_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var depth, loops, gathers int // brace depth inside the current inner loop; loops seen; gather lines checked
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		code, _, _ := strings.Cut(text, "//")
		if depth == 0 {
			if strings.TrimSpace(code) == "for ; j < jhi; j++ {" {
				depth = 1
				loops++
			}
			continue
		}
		depth += strings.Count(code, "{") - strings.Count(code, "}")
		switch n := reported[line]; {
		case n > 0 && strings.HasSuffix(text, "// gather"):
			gathers++
		case n > 0:
			t.Errorf("mul_gen.go:%d: %d bounds check(s) inside the inner loop on a line other than the gather:\n\t%s",
				line, n, strings.TrimSpace(text))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if loops != 2 || gathers != 2 {
		t.Errorf("found %d inner loops and %d checked gather lines in mul_gen.go, want 2 and 2: the scan no longer matches the template", loops, gathers)
	}
}
