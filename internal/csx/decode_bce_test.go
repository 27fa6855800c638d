package csx

import (
	"bufio"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestElementLoopsCheckOnlyMarkedLines compiles this package with the
// compiler's bounds-check report switched on and holds the element loops of
// the two decode kernels to DESIGN.md §17.2: every window is cut before the
// loop, so inside a loop nested in the unit loop the compiler keeps a bounds
// check only on the lines a delta arm marks — `// gather` and `// scatter`,
// the data-dependent x[col] and target[col], and `// delta`, the next column
// step read from the ctl stream — and none at all in a run or block arm. (The
// two unrolled Block3 cells have no loop to scan: they index array pointers
// with constants, which the compiler checks at compile time.) The
// anti-diagonal arm, whose columns run backwards, indexes unwindowed and is
// the one arm left out. The loops this replaced kept three checks per element
// in a block (vals[pos], x[c], target[c]) and five in a delta unit.
func TestElementLoopsCheckOnlyMarkedLines(t *testing.T) {
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
	for file, want := range map[string]struct {
		fn    string
		loops int // element loops outside the anti-diagonal arm
	}{
		"sym.go":    {"func mulBlobSym(", 8},
		"matrix.go": {"func mulBlob(", 8},
	} {
		reported := map[int]int{} // line → checks the compiler kept on it
		site := regexp.MustCompile(regexp.QuoteMeta(file) + `:(\d+):\d+: Found Is(Slice)?InBounds`)
		for _, m := range site.FindAllStringSubmatch(string(out), -1) {
			line, _ := strconv.Atoi(m[1])
			reported[line]++
		}
		if len(reported) == 0 {
			t.Fatalf("the compiler reported no bounds check at all in %s; is -d=ssa/check_bce still its flag?\n%s", file, out)
		}
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		var (
			inFn  bool
			arm   string // the case label the scan is under
			depth int    // brace depth inside the current element loop, 0 outside one
			loops int
		)
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			code, comment, _ := strings.Cut(text, "//")
			code = strings.TrimSpace(code)
			switch {
			case strings.HasPrefix(text, "func "):
				inFn = strings.HasPrefix(text, want.fn)
			case !inFn:
			case strings.HasPrefix(code, "case ") || code == "default:":
				arm = code
			case depth == 0:
				if strings.HasPrefix(code, "for ") && strings.HasPrefix(text, "\t\t\t") && arm != "case AntiDiagonal:" {
					depth = 1
					loops++
				}
			default:
				depth += strings.Count(code, "{") - strings.Count(code, "}")
				n := reported[line]
				if n == 0 {
					continue
				}
				marked := false
				for _, m := range []string{"gather", "scatter", "delta"} {
					marked = marked || strings.TrimSpace(comment) == m
				}
				if !marked || !strings.HasPrefix(arm, "case Delta") {
					t.Errorf("%s:%d (%s): %d bounds check(s) inside an element loop on a line the design does not admit:\n\t%s",
						file, line, arm, n, strings.TrimSpace(text))
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if loops != want.loops {
			t.Errorf("found %d element loops in %s of %s, want %d: the scan no longer matches the kernel", loops, want.fn, file, want.loops)
		}
	}
}
