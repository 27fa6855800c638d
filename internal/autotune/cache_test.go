package autotune

import (
	"os"
	"path/filepath"
	"repro/internal/format"
	"strings"
	"testing"
)

func testKey() Key {
	return Key{Fingerprint: 0xDEADBEEFCAFEF00D, Machine: MachineSignature()}
}

func TestStoreRoundTrip(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	k := testKey()
	want := Plan{Format: format.SSSIndexed, Threads: 4, Reorder: true}
	if err := st.Save(k, want, 1234.5); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Load(k)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Load missed a freshly saved entry")
	}
	if got != want {
		t.Fatalf("Load = %v, want %v", got, want)
	}

	// Overwrite with a different plan: the newer entry wins.
	want2 := Plan{Format: format.CSXSym, Threads: 8}
	if err := st.Save(k, want2, 99); err != nil {
		t.Fatal(err)
	}
	got, ok, err = st.Load(k)
	if err != nil || !ok || got != want2 {
		t.Fatalf("after overwrite: plan %v ok %v err %v, want %v", got, ok, err, want2)
	}

	// Hierarchical domain-sharded plans survive the v4 encoding.
	want3 := Plan{Format: format.SSSNaive, Threads: 8, Domains: 2, Hierarchical: true}
	if err := st.Save(k, want3, 7); err != nil {
		t.Fatal(err)
	}
	got, ok, err = st.Load(k)
	if err != nil || !ok || got != want3 {
		t.Fatalf("hierarchical roundtrip: plan %v ok %v err %v, want %v", got, ok, err, want3)
	}
}

func TestStoreAbsentIsPlainMiss(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	p, ok, err := st.Load(testKey())
	if ok || err != nil {
		t.Fatalf("absent entry: plan %v ok %v err %v, want clean miss with nil error", p, ok, err)
	}
}

// entryFile saves one valid entry and returns its path and raw bytes.
func entryFile(t *testing.T, st Store, k Key) (string, []byte) {
	t.Helper()
	if err := st.Save(k, Plan{Format: format.CSB, Threads: 2}, 42); err != nil {
		t.Fatal(err)
	}
	path := st.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestStoreTruncatedEntry(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	k := testKey()
	path, data := entryFile(t, st, k)
	// Every possible truncation point must read as a miss + error, never a
	// panic or a bogus plan.
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		p, ok, err := st.Load(k)
		if ok || err == nil {
			t.Fatalf("truncation at %d/%d bytes: plan %v ok %v err %v, want miss + error",
				cut, len(data), p, ok, err)
		}
	}
}

func TestStoreBitFlippedEntry(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	k := testKey()
	path, data := entryFile(t, st, k)
	for i := range data {
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 0x40
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		p, ok, err := st.Load(k)
		if ok || err == nil {
			t.Fatalf("bit flip at byte %d: plan %v ok %v err %v, want miss + error", i, p, ok, err)
		}
	}
}

func TestStoreRejectsForeignKey(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	k := testKey()
	if err := st.Save(k, Plan{Format: format.CSR, Threads: 1}, 7); err != nil {
		t.Fatal(err)
	}
	// Same file contents presented under a different key (e.g. a cache dir
	// copied between machines): must miss with a diagnostic.
	other := Key{Fingerprint: k.Fingerprint, Machine: k.Machine + " (other box)"}
	if err := os.Rename(st.path(k), st.path(other)); err != nil {
		t.Fatal(err)
	}
	p, ok, err := st.Load(other)
	if ok || err == nil {
		t.Fatalf("foreign key: plan %v ok %v err %v, want miss + error", p, ok, err)
	}
	if !strings.Contains(err.Error(), "different matrix, machine, vector count, domain count, or symmetry class") {
		t.Fatalf("foreign key diagnostic = %v", err)
	}
}

func TestStoreSaveIsAtomic(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	k := testKey()
	if err := st.Save(k, Plan{Format: format.CSR, Threads: 1}, 7); err != nil {
		t.Fatal(err)
	}
	// No temp droppings after a successful save.
	matches, err := filepath.Glob(filepath.Join(st.Dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("leftover temp files after Save: %v", matches)
	}
}

func TestFingerprintStructureSensitivity(t *testing.T) {
	_, s1 := poisson(t, 12)
	_, s2 := poisson(t, 12)
	if Fingerprint(s1) != Fingerprint(s2) {
		t.Fatal("identical structures fingerprint differently")
	}
	_, s3 := poisson(t, 13)
	if Fingerprint(s1) == Fingerprint(s3) {
		t.Fatal("different structures share a fingerprint")
	}
	// Values are deliberately excluded: scaling them must not change the key.
	for i := range s2.Val {
		s2.Val[i] *= 3
	}
	for i := range s2.DValues {
		s2.DValues[i] *= 3
	}
	if Fingerprint(s1) != Fingerprint(s2) {
		t.Fatal("fingerprint depends on values, want structure-only")
	}
}

func TestMachineSignatureStable(t *testing.T) {
	a, b := MachineSignature(), MachineSignature()
	if a != b || a == "" {
		t.Fatalf("MachineSignature unstable: %q vs %q", a, b)
	}
	if !strings.Contains(a, "gomaxprocs=") {
		t.Fatalf("MachineSignature missing thread budget: %q", a)
	}
}

// TestCacheKeyedByDomains: a plan tuned under a domain-sharded search must
// not answer a flat lookup of the same matrix, and vice versa — the two
// searches race different candidate spaces.
func TestCacheKeyedByDomains(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	k2 := Key{Fingerprint: 0x77, Machine: "m", Domains: 2}
	want := Plan{Format: format.SSSNaive, Threads: 4, Domains: 2, Hierarchical: true}
	if err := st.Save(k2, want, 5); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Load(k2)
	if err != nil || !ok || got != want {
		t.Fatalf("Load = %v, %v, %v; want %v", got, ok, err, want)
	}
	if _, ok, _ := st.Load(Key{Fingerprint: 0x77, Machine: "m"}); ok {
		t.Fatal("Domains=2 entry answered a flat lookup")
	}
	if _, ok, _ := st.Load(Key{Fingerprint: 0x77, Machine: "m", Domains: 4}); ok {
		t.Fatal("Domains=2 entry answered a Domains=4 lookup")
	}
	// Domains 0 and 1 are the same (flat) key: a flat entry answers both.
	flat := Plan{Format: format.SSSIndexed, Threads: 2}
	if err := st.Save(Key{Fingerprint: 0x78, Machine: "m", Domains: 1}, flat, 3); err != nil {
		t.Fatal(err)
	}
	got, ok, err = st.Load(Key{Fingerprint: 0x78, Machine: "m"})
	if err != nil || !ok || got != flat {
		t.Fatalf("flat Load = %v, %v, %v; want %v", got, ok, err, flat)
	}
}
