package buildinfo

import (
	"regexp"
	"strings"
	"testing"
)

func TestCommitShape(t *testing.T) {
	c := Commit()
	if c == "" {
		t.Fatal("Commit() returned an empty string")
	}
	// Either a 12-hex-digit prefix (optionally -dirty) or the literal
	// "unknown" fallback; anything else means the resolution logic regressed.
	ok, err := regexp.MatchString(`^([0-9a-f]{12}(-dirty)?|unknown)$`, c)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("Commit() = %q, want 12 hex digits or \"unknown\"", c)
	}
	if c2 := Commit(); c2 != c {
		t.Fatalf("Commit() not stable: %q then %q", c, c2)
	}
}

func TestVersionQuotesEverySchema(t *testing.T) {
	v := Version("test-prog")
	for _, want := range []string{"test-prog", Commit(), ServeAPI} {
		if !strings.Contains(v, want) {
			t.Errorf("Version() missing %q:\n%s", want, v)
		}
	}
}
