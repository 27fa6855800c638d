package format

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestTableIsWellFormed checks the invariants every reader of the table
// relies on: each row is buildable, named once, and priced iff tunable.
func TestTableIsWellFormed(t *testing.T) {
	seen := map[string]ID{}
	for _, f := range All() {
		d := f.Desc()
		if d.ID != f || d.Name == "" || d.build == nil {
			t.Fatalf("row %d malformed: %+v", int(f), d)
		}
		if d.Caps&AnyClass == 0 {
			t.Errorf("%v runs no symmetry class", f)
		}
		if tuned, priced := d.Caps&Tuned != 0, d.estimate != nil; tuned != priced {
			t.Errorf("%v: in the plan space = %v but has a model estimate = %v", f, tuned, priced)
		}
		for _, name := range append([]string{strings.ToLower(d.Name)}, d.Aliases...) {
			if name != strings.ToLower(name) {
				t.Errorf("%v: alias %q is not lower case", f, name)
			}
			if prev, dup := seen[name]; dup {
				t.Errorf("name %q claimed by both %v and %v", name, prev, f)
			}
			seen[name] = f
		}
	}
	if !ID(len(table)-1).Valid() || ID(len(table)).Valid() || ID(-1).Valid() {
		t.Error("Valid disagrees with the table bounds")
	}
	if got := ID(len(table)).String(); !strings.HasPrefix(got, "Format(") {
		t.Errorf("out-of-table String() = %q", got)
	}
}

// TestParse: every format's own String() parses back (so a name the server
// reports can be posted to it), in any case; every spelling the two retired
// name maps (internal/serve, cmd/cg-solve) accepted still resolves to the
// same format; the error names the alternatives; and the names of the three
// rows that left the table (BCSR, CSB-Sym, SSS-atomic) are unknown formats like
// any other.
func TestParse(t *testing.T) {
	for _, f := range All() {
		for _, name := range []string{f.String(), strings.ToLower(f.String()), strings.ToUpper(f.String())} {
			if got, err := Parse(name); err != nil || got != f {
				t.Errorf("Parse(%q) = %v, %v; want %v", name, got, err, f)
			}
		}
	}
	legacy := map[string]ID{
		"csr": CSR, "csx": CSX, "sss": SSSIndexed, "sss-idx": SSSIndexed,
		"sss-naive": SSSNaive, "sss-eff": SSSEffective, "sss-color": SSSColored,
		"csx-sym": CSXSym,
	}
	for name, want := range legacy {
		if got, err := Parse(name); err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, unknown := range []string{"sss-indexd", "bcsr", "csb", "csb-sym", "sss-atomic"} {
		_, err := Parse(unknown)
		if err == nil {
			t.Fatalf("Parse accepted %q", unknown)
		}
		for _, name := range Names() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("Parse(%q) error %q does not list %q", unknown, err, name)
			}
		}
	}
}

// TestCheckNamesWhatIsMissing pins the three ways a request can fail and
// that the symmetric-storage formats lose MulMat off the symmetric
// class while the expanded-operator formats keep MulMat.
func TestCheckNamesWhatIsMissing(t *testing.T) {
	cases := []struct {
		f    ID
		c    Caps
		k    core.SymKind
		want string // substring of the error; "" = supported
	}{
		{SSSIndexed, 0, core.Skew, ""},
		{SSSIndexed, FusedDot, core.Structural, ""},
		{SSSIndexed, MulMat | FusedDot, core.Sym, ""},
		{CSR, MulMat, core.Skew, ""},
		{CSXSym, 0, core.Skew, "skew-symmetric"},
		{CSX, MulMat, core.Sym, "no SpMM kernel"},
		{CSR, FusedDot | Serial, core.Sym, "no fused dot, serialized form"},
		{SSSIndexed, MulMat, core.Skew, "SpMM kernel supports only symmetric"},
		{SSSIndexed, MulMat, core.Structural, "structurally-symmetric"},
	}
	for _, tc := range cases {
		err := tc.f.Desc().Check(tc.c, tc.k)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v caps %b on %v: unexpected %v", tc.f, tc.c, tc.k, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v caps %b on %v: error %v, want one containing %q", tc.f, tc.c, tc.k, err, tc.want)
		}
		if err != nil {
			if ue, ok := err.(*UnsupportedError); !ok || ue.Format != tc.f {
				t.Errorf("%v: error %T is not an *UnsupportedError for the format", tc.f, err)
			}
		}
	}
}

// docTable renders the format/capability table README.md and DESIGN.md
// carry. "sym" in a capability column means the capability exists on
// symmetric matrices only.
func docTable() string {
	var b strings.Builder
	b.WriteString("| format | also accepted as | classes | SpMM | fused dot | saved | autotuned |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, f := range All() {
		d := f.Desc()
		var classes []string
		for k, name := range []string{"sym", "skew", "struct"} {
			if d.Has(0, core.SymKind(k)) {
				classes = append(classes, name)
			}
		}
		cell := func(c Caps) string {
			switch {
			case !d.Has(c, core.Sym):
				return "–"
			case len(classes) > 1 && !d.Has(c, core.Skew):
				return "sym"
			}
			return "yes"
		}
		aliases := "–"
		if len(d.Aliases) > 0 {
			aliases = "`" + strings.Join(d.Aliases, "`, `") + "`"
		}
		b.WriteString("| `" + d.Name + "` | " + aliases + " | " + strings.Join(classes, ", "))
		for _, c := range []Caps{MulMat, FusedDot, Serial, Tuned} {
			b.WriteString(" | " + cell(c))
		}
		b.WriteString(" |\n")
	}
	return b.String()
}

// TestDocsCarryTheTable keeps the one prose copy of the table honest: README
// and DESIGN.md must contain exactly what the registry renders.
func TestDocsCarryTheTable(t *testing.T) {
	want := docTable()
	for _, doc := range []string{"../../README.md", "../../DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(text), want) {
			t.Errorf("%s does not carry the current format table; paste:\n%s", doc, want)
		}
	}
}
