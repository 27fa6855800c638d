package vec

import (
	"bufio"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestElementLoopsCheckOnlyLaneWindows compiles this package with the
// compiler's bounds-check report switched on and holds the cells of
// multi_gen.go to one bounds proof per chunk: every cell cuts its vectors to
// the chunk's rows once, so
//
//   - the element loops of the width-1 cells (the single-vector operations,
//     Jacobi's included: `for i := range r`) keep no check at all, and
//   - inside the loops of the fixed-width cells (2, 4, 8) the only checks
//     left are on the lines the template marks `// lane window`, at most one
//     per loop: windows of equal-length vectors share it.
func TestElementLoopsCheckOnlyLaneWindows(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to compile with")
	}
	out, err := exec.Command(goBin, "build", "-gcflags=-d=ssa/check_bce", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	reported := map[string]map[int]int{} // file → line → checks the compiler kept on it
	site := regexp.MustCompile(`(\w+\.go):(\d+):\d+: Found Is(Slice)?InBounds`)
	for _, m := range site.FindAllStringSubmatch(string(out), -1) {
		line, _ := strconv.Atoi(m[2])
		if reported[m[1]] == nil {
			reported[m[1]] = map[int]int{}
		}
		reported[m[1]][line]++
	}
	checked := reported["multi_gen.go"]
	if len(checked) == 0 {
		t.Fatalf("the compiler reported no bounds check at all in multi_gen.go; is -d=ssa/check_bce still its flag?\n%s", out)
	}

	one := regexp.MustCompile(`(1T|laneDots1)$`)
	loops, checks := scanLoops(t, "multi_gen.go", checked, func(fn, header string) bool {
		return one.MatchString(fn)
	})
	for _, c := range checks {
		t.Errorf("multi_gen.go:%d (%s): %d bounds check(s) inside an element loop:\n\t%s", c.line, c.fn, c.n, c.text)
	}
	// subCopyDots, update and direction, their Jacobi forms, and the lane dot.
	if loops != 7 {
		t.Errorf("found %d element loops in multi_gen.go's width-1 cells, want 7: the scan no longer matches the template", loops)
	}

	fixed := regexp.MustCompile(`[248]T?$`)
	loops, checks = scanLoops(t, "multi_gen.go", checked, func(fn, header string) bool {
		return fixed.MatchString(fn)
	})
	type loop struct {
		fn string
		at int
	}
	perLoop := map[loop]int{}
	for _, c := range checks {
		perLoop[loop{c.fn, c.loop}] += c.n
		if !strings.HasSuffix(c.text, "// lane window") {
			t.Errorf("multi_gen.go:%d (%s): %d bounds check(s) inside a loop on a line that is not a lane window:\n\t%s", c.line, c.fn, c.n, c.text)
		}
	}
	for l, n := range perLoop {
		if n > 1 {
			t.Errorf("multi_gen.go: a loop of %s keeps %d bounds checks, want at most 1", l.fn, n)
		}
	}
	// One row loop per operation and width: subCopyDots, update, direction
	// and the lane dot at 2, 4 and 8.
	if loops != 4*3 {
		t.Errorf("found %d loops in multi_gen.go's fixed-width cells, want 12: the scan no longer matches the template", loops)
	}
}

// check is one line inside a scanned loop that kept bounds checks.
type check struct {
	fn, text      string
	line, n, loop int
}

// scanLoops walks file's functions and returns how many outermost loops
// match(function, loop header) accepts, and every reported line inside them.
func scanLoops(t *testing.T, file string, reported map[int]int, match func(fn, header string) bool) (loops int, checks []check) {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	header := regexp.MustCompile(`^func (?:\([^)]*\) )?(\w+)\(`)
	fn, depth := "", 0 // depth: brace depth inside the current loop, 0 outside one
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		code, _, _ := strings.Cut(text, "//")
		code = strings.TrimSpace(code)
		if m := header.FindStringSubmatch(text); m != nil {
			fn = m[1]
		}
		if depth == 0 {
			if strings.HasPrefix(code, "for ") && strings.HasSuffix(code, "{") && match(fn, code) {
				depth = 1
				loops++
			}
			continue
		}
		depth += strings.Count(code, "{") - strings.Count(code, "}")
		if n := reported[line]; n > 0 {
			checks = append(checks, check{fn: fn, text: strings.TrimSpace(text), line: line, n: n, loop: loops})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return loops, checks
}
