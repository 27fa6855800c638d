package symspmv

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/autotune"
	"repro/internal/format"
)

// savedKernelFile persists a CSX-Sym kernel and returns the file's path and
// raw bytes, plus the matrix it encodes.
func savedKernelFile(t *testing.T) (*Matrix, string, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(211))
	A := buildRandomSPD(t, rng, 200, 3)
	k, err := A.Kernel(CSXSym, Threads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	path := filepath.Join(t.TempDir(), "kernel.csxs")
	if err := SaveKernel(k, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return A, path, data
}

func TestKernelCacheRoundTrip(t *testing.T) {
	A, path, _ := savedKernelFile(t)
	k, err := LoadCSXSymKernel(path)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if k.Format() != CSXSym {
		t.Fatalf("loaded kernel format %v, want CSXSym", k.Format())
	}
	n := A.N()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	want := make([]float64, n)
	got := make([]float64, n)
	A.MulVec(x, want)
	k.MulVec(x, got)
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > 1e-12*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("loaded kernel y[%d] = %g, serial %g", i, got[i], want[i])
		}
	}
	// Round-trip again: save the loaded kernel and reload it.
	path2 := filepath.Join(t.TempDir(), "again.csxs")
	if err := SaveKernel(k, path2); err != nil {
		t.Fatal(err)
	}
	k2, err := LoadCSXSymKernel(path2)
	if err != nil {
		t.Fatal(err)
	}
	k2.Close()
}

// TestKernelCacheTruncated checks that a kernel file cut off at any point —
// a torn write, a partial copy — loads as a clean error, never a panic or a
// silently wrong kernel.
func TestKernelCacheTruncated(t *testing.T) {
	_, path, data := savedKernelFile(t)
	// Sample cut points densely at the header and sparsely through the body.
	cuts := []int{0, 1, 2, 3, 4, 5, 7, 8, 11, 15, 16, 31}
	for c := 64; c < len(data); c += len(data)/64 + 1 {
		cuts = append(cuts, c)
	}
	cuts = append(cuts, len(data)-1)
	for _, cut := range cuts {
		if cut >= len(data) {
			continue
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		k, err := LoadCSXSymKernel(path)
		if err == nil {
			k.Close()
			t.Fatalf("LoadCSXSymKernel accepted a file truncated to %d/%d bytes", cut, len(data))
		}
	}
}

// TestKernelCacheBitFlipped checks that single-bit corruption anywhere in
// the file is caught by the checksum (or structural validation) and loads
// as a clean error.
func TestKernelCacheBitFlipped(t *testing.T) {
	_, path, data := savedKernelFile(t)
	step := len(data)/97 + 1
	for i := 0; i < len(data); i += step {
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 1 << uint(i%8)
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		k, err := LoadCSXSymKernel(path)
		if err == nil {
			k.Close()
			t.Fatalf("LoadCSXSymKernel accepted a bit flip at byte %d of %d", i, len(data))
		}
	}
}

func TestKernelCacheMissingFile(t *testing.T) {
	if _, err := LoadCSXSymKernel(filepath.Join(t.TempDir(), "absent.csxs")); err == nil {
		t.Fatal("LoadCSXSymKernel accepted a missing file")
	}
}

// TestSaveKernelRejectsOtherFormats: only a natural-order CSX-Sym kernel is
// saved. A reordered CSX-Sym plan keeps its encoded matrix, but that blob is
// in RCM order and would load as another operator.
func TestSaveKernelRejectsOtherFormats(t *testing.T) {
	A, err := GeneratePoisson2D(12)
	if err != nil {
		t.Fatal(err)
	}
	plans := []autotune.Plan{{Format: CSXSym, Threads: 1, Reorder: true}}
	for _, f := range Formats() {
		if f.Desc().Caps&format.Serial == 0 {
			plans = append(plans, autotune.Plan{Format: f, Threads: 1})
		}
	}
	for _, plan := range plans {
		k, err := A.planKernel(plan)
		if err != nil {
			t.Fatal(err)
		}
		err = SaveKernel(k, filepath.Join(t.TempDir(), "x.csxs"))
		k.Close()
		if err == nil {
			t.Fatalf("SaveKernel accepted a %v kernel", plan)
		}
	}
}

// TestLoadedCSXSymKernelFusesTheDot: a kernel loaded from a saved blob is the
// built kernel's Built, fused dot included, so a CG solve over it takes the
// built kernel's pool handoffs (two an iteration, not three).
func TestLoadedCSXSymKernelFusesTheDot(t *testing.T) {
	A := buildRandomSPD(t, rand.New(rand.NewSource(400)), 400, 3)
	built, err := A.Kernel(CSXSym, Threads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	path := filepath.Join(t.TempDir(), "kernel.csxs")
	if err := SaveKernel(built, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCSXSymKernel(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	n := A.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	if got, want := cgHandoffs(t, loaded, b, 20), cgHandoffs(t, built, b, 20); got != want {
		t.Fatalf("SolveCG on the loaded kernel: %d handoffs over 20 iterations, built kernel %d", got, want)
	}
}
