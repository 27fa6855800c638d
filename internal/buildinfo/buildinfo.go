// Package buildinfo is the single source of version provenance for every
// binary in the repository: the git commit the build came from plus the
// version of the on-wire schema. The cmds print it behind a -version flag
// and the serve API reports it from /healthz, so a running server can be
// attributed to one code revision.
package buildinfo

import (
	"fmt"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

// Schema versions. Bump these where the format changes, not at the call
// sites: the writer, the reader, and -version output all quote the same
// constant.
const (
	// ServeAPI is the symspmv-serve HTTP API version prefix (/v1/...).
	ServeAPI = "v1"
)

var (
	commitOnce sync.Once
	commitVal  string
)

// Commit resolves the git commit of the running binary, best effort:
// the VCS stamp Go embeds in module builds first, then `git rev-parse` for
// `go run` / `go test` invocations inside a checkout, and "unknown" when
// neither is available (e.g. an installed binary outside the repository).
// The first twelve hex digits are returned; "-dirty" is appended when the
// VCS stamp reports uncommitted modifications.
func Commit() string {
	commitOnce.Do(func() { commitVal = resolveCommit() })
	return commitVal
}

func resolveCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	// `go run` and `go test` binaries carry no VCS stamp; fall back to the
	// working tree.
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Version renders the full provenance block a -version flag prints: the
// program name, commit, toolchain, and every schema version this revision
// reads or writes.
func Version(program string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s (%s)\n", program, Commit(), runtime.Version())
	fmt.Fprintf(&b, "  serve API:          %s\n", ServeAPI)
	return b.String()
}
