package autotune

// The tuning cache persists one Plan per (matrix structure, machine) pair
// so repeat solves skip the search. Like the CSX-Sym kernel cache
// (internal/csx/serialize.go) the format is versioned and checksummed:
//
//	magic "ATNC" | version u32 |
//	fingerprint u64 | machineLen u32 | machine bytes | nv u32 | kind u8 |
//	format u32 | threads u32 | reorder u8 | scoreNs f64 |
//	crc32 (IEEE) of everything above
//
// All integers are little-endian. A file that is truncated, bit-flipped,
// from another library version, or keyed to a different matrix/machine
// reads as a clean miss plus a diagnostic error — the tuner then simply
// re-runs the search and overwrites it.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/obs"
)

// Cache request outcomes, split three ways: a hit replays a stored plan, a
// plain miss means no entry existed, and a corrupt miss means an entry
// existed but was unreadable (torn write, bit flip, version skew, or keyed
// to a different matrix/machine) — the outcome worth alerting on.
var (
	cacheHits = obs.NewCounter("symspmv_autotune_cache_requests_total",
		"Tuning-cache lookups by result.", "result", "hit")
	cacheMisses = obs.NewCounter("symspmv_autotune_cache_requests_total",
		"Tuning-cache lookups by result.", "result", "miss")
	cacheCorrupt = obs.NewCounter("symspmv_autotune_cache_requests_total",
		"Tuning-cache lookups by result.", "result", "corrupt")
)

// CacheStats reports the process-wide tuning-cache lookup outcomes: hits,
// plain misses (entry absent), and corrupt misses (entry unreadable).
func CacheStats() (hits, misses, corrupt int64) {
	return cacheHits.Value(), cacheMisses.Value(), cacheCorrupt.Value()
}

const (
	cacheMagic = "ATNC"
	// cacheVersion 8: three rows left the format table (ten to seven), so the
	// format field's numbering moved under every row after CSX (a v7 "5" was
	// SSS-indexed and would now read as CSX-Sym — a different, buildable
	// plan). Older entries read as a clean miss and retune. (v7 dropped the
	// domain count from the key and the hub, domains and hierarchical fields
	// from the plan; v6 made the format field the library-wide format.ID; v5
	// added the symmetry-class byte to the key; v3 NV; v2 the SSS-colored
	// format.)
	cacheVersion = 8
)

// Key identifies one tuning-cache entry: the matrix structure fingerprint,
// the machine signature, and the vector count the plan was tuned for (0 and
// 1 both mean single-vector SpMV). Values are excluded from the fingerprint
// on purpose — the plan depends only on structure.
type Key struct {
	Fingerprint uint64
	Machine     string
	NV          int
	// Kind is the matrix's symmetry class. The fingerprint covers only the
	// index structure, which all classes share, so the class must key the
	// entry separately.
	Kind core.SymKind
}

// nv normalizes the vector count (0 → 1).
func (k Key) nv() uint32 {
	if k.NV < 1 {
		return 1
	}
	return uint32(k.NV)
}

// Fingerprint hashes the matrix structure (dimension and sparsity pattern,
// not values) with FNV-64a. O(nnz), a vanishing cost next to one trial.
func Fingerprint(s *core.SSS) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(s.N))
	put(uint64(len(s.Val)))
	for _, v := range s.RowPtr {
		put(uint64(uint32(v)))
	}
	for _, v := range s.ColIdx {
		put(uint64(uint32(v)))
	}
	return h.Sum64()
}

var (
	machineOnce sync.Once
	machineSig  string
)

// MachineSignature identifies the hardware/runtime configuration a plan was
// tuned for: OS, architecture, GOMAXPROCS, CPU count, and the CPU model
// when the OS exposes it. A plan tuned at 4 threads on one CPU must not be
// replayed on a different machine or thread budget.
func MachineSignature() string {
	machineOnce.Do(func() {
		machineSig = fmt.Sprintf("%s/%s gomaxprocs=%d ncpu=%d cpu=%s",
			runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	})
	return machineSig
}

// cpuModel best-effort reads the CPU model name (Linux /proc/cpuinfo).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return "unknown"
}

// Store is an on-disk tuning cache rooted at Dir (one file per key).
type Store struct {
	Dir string
}

// path derives the entry file name: the structure fingerprint in hex plus a
// short hash of the machine signature.
func (st Store) path(k Key) string {
	name := fmt.Sprintf("plan-%016x-%08x", k.Fingerprint, crc32.ChecksumIEEE([]byte(k.Machine)))
	if nv := k.nv(); nv > 1 {
		// SpMM plans live beside the SpMV plan of the same matrix, one file
		// per tuned width.
		name += fmt.Sprintf("-nv%d", nv)
	}
	if k.Kind != core.Sym {
		// Non-Sym kinds share the fingerprint of a same-pattern symmetric
		// matrix; a suffix keeps their plans in separate files.
		name += fmt.Sprintf("-k%d", int(k.Kind))
	}
	return filepath.Join(st.Dir, name+".atc")
}

// Save persists the plan for key, creating Dir if needed. The write goes
// through a temp file + rename so a crashed writer never leaves a torn
// entry behind.
func (st Store) Save(k Key, p Plan, scoreNs float64) error {
	if err := os.MkdirAll(st.Dir, 0o755); err != nil {
		return err
	}
	var body bytes.Buffer
	crc := crc32.NewIEEE()
	w := io.MultiWriter(&body, crc)
	put := func(v any) { binary.Write(w, binary.LittleEndian, v) }
	w.Write([]byte(cacheMagic))
	put(uint32(cacheVersion))
	put(k.Fingerprint)
	put(uint32(len(k.Machine)))
	w.Write([]byte(k.Machine))
	put(k.nv())
	put(uint8(k.Kind))
	put(uint32(p.Format))
	put(uint32(p.Threads))
	put(p.Reorder)
	put(scoreNs)
	binary.Write(&body, binary.LittleEndian, crc.Sum32())

	tmp, err := os.CreateTemp(st.Dir, "plan-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(body.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), st.path(k))
}

// Load reads the plan for key. ok is false on any miss: no file, torn or
// corrupted file, version skew, or a file whose embedded key does not match
// (hash collision, copied cache dir). err carries the diagnostic for the
// non-"file absent" misses; callers are expected to retune and Save.
func (st Store) Load(k Key) (p Plan, ok bool, err error) {
	f, err := os.Open(st.path(k))
	if err != nil {
		cacheMisses.Inc()
		return Plan{}, false, nil // absent: plain miss
	}
	defer f.Close()
	p, err = readEntry(bufio.NewReader(f), k)
	if err != nil {
		cacheCorrupt.Inc()
		return Plan{}, false, fmt.Errorf("autotune: cache %s: %w", st.path(k), err)
	}
	cacheHits.Inc()
	return p, true, nil
}

func readEntry(r io.Reader, k Key) (Plan, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)
	get := func(v any) error { return binary.Read(tr, binary.LittleEndian, v) }

	magic := make([]byte, 4)
	if _, err := io.ReadFull(tr, magic); err != nil {
		return Plan{}, fmt.Errorf("reading magic: %w", err)
	}
	if string(magic) != cacheMagic {
		return Plan{}, fmt.Errorf("bad magic %q", magic)
	}
	var version uint32
	if err := get(&version); err != nil {
		return Plan{}, err
	}
	if version != cacheVersion {
		return Plan{}, fmt.Errorf("unsupported version %d", version)
	}
	var fp uint64
	if err := get(&fp); err != nil {
		return Plan{}, err
	}
	var mlen uint32
	if err := get(&mlen); err != nil {
		return Plan{}, err
	}
	if mlen > 1<<16 {
		return Plan{}, fmt.Errorf("implausible machine signature length %d", mlen)
	}
	machine := make([]byte, mlen)
	if _, err := io.ReadFull(tr, machine); err != nil {
		return Plan{}, fmt.Errorf("reading machine signature: %w", err)
	}
	var nv, fid, threads uint32
	var kind, re uint8
	var score float64
	if err := get(&nv); err != nil {
		return Plan{}, err
	}
	if err := get(&kind); err != nil {
		return Plan{}, err
	}
	if err := get(&fid); err != nil {
		return Plan{}, err
	}
	if err := get(&threads); err != nil {
		return Plan{}, err
	}
	if err := get(&re); err != nil {
		return Plan{}, err
	}
	if err := get(&score); err != nil {
		return Plan{}, err
	}
	wantSum := crc.Sum32()
	var gotSum uint32
	if err := binary.Read(r, binary.LittleEndian, &gotSum); err != nil {
		return Plan{}, fmt.Errorf("reading checksum: %w", err)
	}
	if gotSum != wantSum {
		return Plan{}, fmt.Errorf("checksum mismatch: file %08x, computed %08x", gotSum, wantSum)
	}
	if kind > uint8(core.Structural) {
		return Plan{}, fmt.Errorf("unknown symmetry class %d", kind)
	}
	if fp != k.Fingerprint || string(machine) != k.Machine || nv != k.nv() || core.SymKind(kind) != k.Kind {
		return Plan{}, fmt.Errorf("entry keyed to a different matrix, machine, vector count, or symmetry class")
	}
	if !format.ID(fid).Valid() {
		return Plan{}, fmt.Errorf("unknown format %d", fid)
	}
	if err := format.ID(fid).Desc().Check(planCaps(int(nv)), k.Kind); err != nil {
		return Plan{}, fmt.Errorf("plan outside the searched space: %w", err)
	}
	if threads == 0 || threads > 1<<16 {
		return Plan{}, fmt.Errorf("implausible thread count %d", threads)
	}
	return Plan{Format: format.ID(fid), Threads: int(threads), Reorder: re != 0}, nil
}

// DefaultCacheDir is the conventional persistent cache location
// (<user cache dir>/symspmv/autotune). Falls back to the temp dir when the
// OS reports no user cache directory.
func DefaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		base = os.TempDir()
	}
	return filepath.Join(base, "symspmv", "autotune")
}
