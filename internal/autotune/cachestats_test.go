package autotune

import (
	"os"
	"repro/internal/format"
	"testing"
)

// TestCacheStatsClassification drives one lookup of each outcome class
// through Store.Load and checks the process-wide counters (and their
// facade-visible accessor) classify them as hit / plain miss / corrupt miss.
func TestCacheStatsClassification(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	k := testKey()

	h0, m0, c0 := CacheStats()

	// Plain miss: no entry on disk.
	if _, ok, err := st.Load(k); ok || err != nil {
		t.Fatalf("expected clean miss, got ok=%v err=%v", ok, err)
	}
	// Hit: a freshly saved entry.
	if err := st.Save(k, Plan{Format: format.SSSColored, Threads: 2}, 11); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Load(k); !ok || err != nil {
		t.Fatalf("expected hit, got ok=%v err=%v", ok, err)
	}
	// Corrupt miss: the entry exists but fails validation.
	if err := os.WriteFile(st.path(k), []byte("ATNCgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Load(k); ok || err == nil {
		t.Fatalf("expected corrupt miss with diagnostic, got ok=%v err=%v", ok, err)
	}

	h1, m1, c1 := CacheStats()
	if h1-h0 != 1 || m1-m0 != 1 || c1-c0 != 1 {
		t.Fatalf("CacheStats deltas = hit %d, miss %d, corrupt %d; want 1, 1, 1",
			h1-h0, m1-m0, c1-c0)
	}
}
