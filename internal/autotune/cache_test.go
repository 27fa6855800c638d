package autotune

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/parallel"
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
	if err := st.Save(k, Plan{Format: format.SSSColored, Threads: 2}, 42); err != nil {
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

// TestStoreV7EntriesAreMisses: version 7 numbered the format field over the
// ten-row table (CSR, CSX, BCSR, SSS-naive, SSS-effective, SSS-indexed,
// SSS-atomic, CSX-Sym, CSB-Sym, SSS-colored). Under today's seven rows old 2–6
// name different formats, all buildable, and old 7–9 name none, so a v7 entry —
// same layout as v8, checksum valid, keyed to this very matrix — must be turned
// away by its version whatever format it stored: a miss with a diagnostic,
// never a plan, and the retune's Save overwrites it.
func TestStoreV7EntriesAreMisses(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	k := testKey()
	for oldID := uint32(0); oldID < 10; oldID++ {
		var v7 []byte
		v7 = append(v7, "ATNC"...)
		v7 = binary.LittleEndian.AppendUint32(v7, 7)
		v7 = binary.LittleEndian.AppendUint64(v7, k.Fingerprint)
		v7 = binary.LittleEndian.AppendUint32(v7, uint32(len(k.Machine)))
		v7 = append(v7, k.Machine...)
		v7 = binary.LittleEndian.AppendUint32(v7, 1) // nv
		v7 = append(v7, uint8(core.Sym))
		v7 = binary.LittleEndian.AppendUint32(v7, oldID)
		v7 = binary.LittleEndian.AppendUint32(v7, 2) // threads
		v7 = append(v7, 0)                           // reorder
		v7 = binary.LittleEndian.AppendUint64(v7, math.Float64bits(42))
		v7 = binary.LittleEndian.AppendUint32(v7, crc32.ChecksumIEEE(v7))
		if err := os.WriteFile(st.path(k), v7, 0o644); err != nil {
			t.Fatal(err)
		}
		p, ok, err := st.Load(k)
		if ok || err == nil || !strings.Contains(err.Error(), "unsupported version 7") {
			t.Fatalf("v7 entry with format %d: plan %v ok %v err %v, want a miss on the version", oldID, p, ok, err)
		}
		want := Plan{Format: format.SSSIndexed, Threads: 2}
		if err := st.Save(k, want, 42); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := st.Load(k); err != nil || !ok || got != want {
			t.Fatalf("after the retune's Save over a v7 entry: plan %v ok %v err %v, want %v", got, ok, err, want)
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
	if !strings.Contains(err.Error(), "different matrix, machine, vector count, or symmetry class") {
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

// FuzzLoadPlan: arbitrary bytes read as a miss or as a plan format.Build
// accepts on the key's matrix, never a panic. Every input is also tried with
// its checksum repaired, so the fuzzer reaches the field checks behind the
// CRC. The matrix is skew-symmetric, the class fewest formats run. Seeds: a
// valid entry, truncations and bit flips (one turns the version into the
// previous one, 7, whose format field was numbered differently; one turns the
// format into CSX-Sym, the symmetric-only one).
func FuzzLoadPlan(f *testing.F) {
	m := randomSkewCOO(f, 64, 4)
	s, err := core.FromCOO(m)
	if err != nil {
		f.Fatal(err)
	}
	k := Key{Fingerprint: Fingerprint(s), Machine: "fuzz", Kind: core.Skew}
	st := Store{Dir: f.TempDir()}
	if err := st.Save(k, Plan{Format: format.SSSIndexed, Threads: 2, Reorder: true}, 42); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(st.path(k))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{0, 3, 8, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	if format.SSSIndexed^1 != format.CSXSym || cacheVersion^0x0f != 7 {
		f.Fatal("the format and version seeds below no longer flip to CSX-Sym and v7")
	}
	for _, flip := range []struct {
		at   int
		mask byte
	}{{0, 0x02}, {4, 0x0f}, {8, 0x02}, {len(valid) - 21, 0x01}, {len(valid) - 17, 0x02}, {len(valid) - 1, 0x02}} {
		flipped := bytes.Clone(valid)
		flipped[flip.at] ^= flip.mask
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		repaired := bytes.Clone(data)
		if n := len(repaired) - 4; n >= 0 {
			binary.LittleEndian.PutUint32(repaired[n:], crc32.ChecksumIEEE(repaired[:n]))
		}
		for _, in := range [][]byte{data, repaired} {
			plan, err := readEntry(bytes.NewReader(in), k)
			if err != nil || plan.Threads > 8 {
				// Whether a format builds does not depend on the thread
				// count; a pool of up to 65 536 workers per input is not
				// worth the fuzzing time.
				continue
			}
			pool := parallel.NewPool(plan.Threads)
			fm := format.NewMatrix(s, m)
			_, err = format.Build(&fm, plan.Format, pool, format.Options{})
			pool.Close()
			if err != nil {
				t.Fatalf("loaded plan %v does not build: %v", plan, err)
			}
		}
	})
}
