package symspmv

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/vec"
)

// symmetricFixture builds a random symmetric matrix through the Builder plus
// its dense expansion, the symmetric sibling of skewMM / structuralMM.
func symmetricFixture(t *testing.T, rng *rand.Rand, n, offPerRow int) (*Matrix, []float64) {
	t.Helper()
	dense := make([]float64, n*n)
	b := NewBuilder(n)
	for r := 0; r < n; r++ {
		v := 4 + rng.Float64()
		dense[r*n+r] = v
		b.Set(r, r, v)
		for k := 0; r > 0 && k < offPerRow; k++ {
			c := rng.Intn(r)
			if dense[r*n+c] != 0 {
				continue
			}
			v := rng.NormFloat64()
			dense[r*n+c], dense[c*n+r] = v, v
			b.Set(r, c, v)
		}
	}
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return a, dense
}

// waitGoroutines polls until the goroutine count is back at or under base:
// Pool.Close signals its workers and returns without waiting for them.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the call — the pool leaked", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFormatConformance walks the whole format table × the three symmetry
// classes × p ∈ {1, 3} and holds every row to what its descriptor says: it
// builds iff it runs the class (a typed error and a released pool
// otherwise), it computes the dense reference's product, and its fused dot
// and SpMM closures exist iff the capability bits say so and agree with
// vec.Dot and per-column MulVec, a repeated product is bitwise the first
// (the determinism contract, which has no exception), no product allocates,
// and every product is sampled by the pool (checkSampledProduct). A new row
// is checked without touching this test.
func TestFormatConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 61
	type fixture struct {
		kind  core.SymKind
		a     *Matrix
		dense []float64
	}
	sym, symDense := symmetricFixture(t, rng, n, 4)
	fixtures := []fixture{{core.Sym, sym, symDense}}
	for _, c := range []struct {
		kind core.SymKind
		gen  func(*rand.Rand, int, int) (string, []float64)
	}{{core.Skew, skewMM}, {core.Structural, structuralMM}} {
		mm, dense := c.gen(rng, n, 4)
		a, err := ReadMatrixMarket(strings.NewReader(mm))
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{c.kind, a, dense})
	}

	const nv = 3
	x := make([]float64, n)
	xm := make([]float64, n*nv)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range xm {
		xm[i] = rng.NormFloat64()
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*(1+math.Abs(want)) }
	// sameBits reports the first index at which a and b differ bitwise, -1 if
	// none.
	sameBits := func(a, b []float64) int {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return i
			}
		}
		return -1
	}

	for _, fx := range fixtures {
		if got := fx.a.SymmetryClass(); got != fx.kind.String() {
			t.Fatalf("fixture classified %q, want %q", got, fx.kind)
		}
		want := make([]float64, n)
		denseMul(fx.dense, n, x, want)
		for _, f := range Formats() {
			d := f.Desc()
			for _, p := range []int{1, 3} {
				base := runtime.NumGoroutine()
				k, err := fx.a.Kernel(f, Threads(p))
				if !d.Has(0, fx.kind) {
					var ue *UnsupportedFormatError
					if err == nil || !errors.As(err, &ue) || ue.Format != f {
						t.Errorf("%v on a %v matrix: Kernel = %v, want *UnsupportedFormatError", f, fx.kind, err)
					}
					if k != nil {
						k.Close()
					}
					waitGoroutines(t, base, f.String()+" refused build")
					continue
				}
				if err != nil {
					t.Errorf("%v on a %v matrix p=%d: %v", f, fx.kind, p, err)
					continue
				}
				bk := k.(*boundKernel)
				y := make([]float64, n)
				k.MulVec(x, y)
				for i := range y {
					if !near(y[i], want[i]) {
						t.Errorf("%v %v p=%d: y[%d] = %g, dense reference %g", f, fx.kind, p, i, y[i], want[i])
						break
					}
				}

				// Determinism: at a fixed thread count every format adds the
				// contributions to one output element in an order the
				// partition fixes — local vectors fold in ascending thread
				// order, colours run in schedule order — so a repeated product
				// is bitwise the first, on any host. No row is exempt.
				y2 := make([]float64, n)
				k.MulVec(x, y2)
				if i := sameBits(y, y2); i >= 0 {
					t.Errorf("%v %v p=%d: second MulVec y[%d] = %x, first %x", f, fx.kind, p, i, math.Float64bits(y2[i]), math.Float64bits(y[i]))
				}

				if has := bk.b.MulDot != nil; has != d.Has(format.FusedDot, fx.kind) {
					t.Errorf("%v %v: MulDot present = %v, descriptor says %v", f, fx.kind, has, !has)
				} else if has {
					yd := make([]float64, n)
					dot := bk.b.MulDot(x, yd)
					if ref := vec.Dot(bk.pool, x, yd); dot != ref {
						t.Errorf("%v %v p=%d: fused dot %g, vec.Dot %g", f, fx.kind, p, dot, ref)
					}
					for i := range yd {
						if !near(yd[i], y[i]) {
							t.Errorf("%v %v p=%d: fused y[%d] = %g, MulVec %g", f, fx.kind, p, i, yd[i], y[i])
							break
						}
					}
					yd2 := make([]float64, n)
					if dot2 := bk.b.MulDot(x, yd2); math.Float64bits(dot2) != math.Float64bits(dot) {
						t.Errorf("%v %v p=%d: second fused dot %x, first %x", f, fx.kind, p, math.Float64bits(dot2), math.Float64bits(dot))
					}
					if i := sameBits(yd, yd2); i >= 0 {
						t.Errorf("%v %v p=%d: second fused y[%d] differs from the first", f, fx.kind, p, i)
					}
				}

				if has := SupportsMulMat(k); has != d.Has(format.MulMat, fx.kind) {
					t.Errorf("%v %v: MulMat present = %v, descriptor says %v", f, fx.kind, has, !has)
				} else if has {
					ym := make([]float64, n*nv)
					if err := MulMat(k, xm, ym, nv); err != nil {
						t.Errorf("%v %v p=%d: MulMat: %v", f, fx.kind, p, err)
					}
					ym2 := make([]float64, n*nv)
					if err := MulMat(k, xm, ym2, nv); err != nil {
						t.Errorf("%v %v p=%d: second MulMat: %v", f, fx.kind, p, err)
					} else if i := sameBits(ym, ym2); i >= 0 {
						t.Errorf("%v %v p=%d: second MulMat differs from the first at %d", f, fx.kind, p, i)
					}
					col, ycol := make([]float64, n), make([]float64, n)
					for v := 0; v < nv; v++ {
						for i := range col {
							col[i] = xm[i*nv+v]
						}
						k.MulVec(col, ycol)
						for i := range ycol {
							if !near(ym[i*nv+v], ycol[i]) {
								t.Errorf("%v %v p=%d: MulMat lane %d row %d = %g, MulVec %g", f, fx.kind, p, v, i, ym[i*nv+v], ycol[i])
								break
							}
						}
					}
				}

				// One sampled pipeline for every row: with sampling off no
				// product allocates; with sampling and tracing on, each product
				// is timed by the pool, whatever the format.
				what := fmt.Sprintf("%v %v p=%d", f, fx.kind, p)
				ops := map[string]func(){"MulVec": func() { k.MulVec(x, y) }}
				if bk.b.MulDot != nil {
					ops["MulDot"] = func() { bk.b.MulDot(x, y) }
				}
				if SupportsMulMat(k) {
					ym := make([]float64, n*nv)
					ops["MulMat"] = func() { MulMat(k, xm, ym, nv) }
				}
				for name, product := range ops {
					if a := testing.AllocsPerRun(10, product); a != 0 {
						t.Errorf("%s: %s allocates %v times per call with sampling off, want 0", what, name, a)
					}
					checkSampledProduct(t, what+" "+name, p, product)
				}
				k.Close()
				waitGoroutines(t, base, f.String()+" closed kernel")
			}
		}
	}

	for _, f := range Formats() {
		if got, err := ParseFormat(f.String()); err != nil || got != f {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", f.String(), got, err, f)
		}
	}
}

// checkSampledProduct runs product on a p-worker kernel with sampling and
// tracing on and holds it to the sampler's contract: every worker lane gets
// the same spans, one per phase; the operation counter of the product's own
// label advances by one; and compute + reduction + barrier = wall. The label
// is read off the span names — "<label>/<phase>", with "<label>-spmm/<phase>"
// for the SpMM families — so a new format is covered without touching this.
func checkSampledProduct(t *testing.T, what string, p int, product func()) {
	t.Helper()
	obs.SetSampling(true)
	obs.EnableTracing(p, 256)
	defer func() {
		obs.SetSampling(false)
		obs.DisableTracing()
	}()
	product()
	lanes := workerSpans(t, p)
	if len(lanes[0]) == 0 {
		t.Errorf("%s: no phase spans on worker 0", what)
		return
	}
	seen := map[string]bool{}
	for _, name := range lanes[0] {
		if seen[name] {
			t.Errorf("%s: span %q twice on one lane: %v", what, name, lanes[0])
		}
		seen[name] = true
	}
	for tid := 1; tid < p; tid++ {
		if !slices.Equal(lanes[tid], lanes[0]) {
			t.Errorf("%s: worker %d spans %v, worker 0 %v", what, tid, lanes[tid], lanes[0])
		}
	}
	label, _, _ := strings.Cut(lanes[0][0], "/")
	stem := "symspmv_spmv"
	if l, ok := strings.CutSuffix(label, "-spmm"); ok {
		label, stem = l, "symspmv_spmm"
	}
	m := parallel.NewOpMetrics(stem, label) // get-or-create: the product's own handles
	ops0, wall0 := m.Ops.Value(), m.Wall.Sum()
	parts0 := m.Compute.Sum() + m.Reduction.Sum() + m.Barrier.Sum()
	barrier0 := m.Barrier.Sum()
	product()
	if got := m.Ops.Value() - ops0; got != 1 {
		t.Errorf("%s: %s_ops_total{method=%q} advanced by %d, want 1", what, stem, label, got)
	}
	wall, parts := m.Wall.Sum()-wall0, m.Compute.Sum()+m.Reduction.Sum()+m.Barrier.Sum()-parts0
	if wall <= 0 {
		t.Errorf("%s: sampled wall time %g", what, wall)
	}
	// Barrier is the wall time the phases' critical paths leave over; it is
	// zero only when those already exceed the wall.
	if m.Barrier.Sum() > barrier0 && math.Abs(parts-wall) > 1e-12 {
		t.Errorf("%s: compute+reduction+barrier = %g s, wall %g s", what, parts, wall)
	} else if parts < wall-1e-12 {
		t.Errorf("%s: parts %g s below wall %g s", what, parts, wall)
	}
}

// workerSpans dumps the tracer and returns each worker lane's span names in
// recording order.
func workerSpans(t *testing.T, p int) [][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	lanes := make([][]string, p)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.TID < p {
			lanes[ev.TID] = append(lanes[ev.TID], ev.Name)
		}
	}
	return lanes
}

// TestAutoKernelCSROnSkew is the capability-drift regression: Matrix.Kernel
// builds CSR — the General | Tuned row — on a skew matrix, so the tuner
// restricted to it must find it in the plan space too (the tuner's own
// hand-written class filter used to drop the unsymmetric baselines: "no
// searched format supports skew-symmetric matrices").
func TestAutoKernelCSROnSkew(t *testing.T) {
	mm, dense := skewMM(rand.New(rand.NewSource(42)), 97, 5)
	a, err := ReadMatrixMarket(strings.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	k, d, err := AutoKernel(a, AutoNoCache(), AutoFormats(CSR), AutoMaxThreads(2), AutoTrialIters(2))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if d.Plan.Format != CSR || k.Format() != CSR {
		t.Fatalf("plan %v, kernel %v; want CSR", d.Plan, k.Format())
	}
	n := a.N()
	x, y, want := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1))
	}
	k.MulVec(x, y)
	denseMul(dense, n, x, want)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("y[%d] = %g, dense reference %g", i, y[i], want[i])
		}
	}
}

// TestAutoKernelRetunesOverV5CacheEntry: a tuning-cache file written by an
// earlier cache version — v5, whose format field numbered the tuner's own
// enum, or v6, which carried the domain count in the key and hub, domains and
// hierarchical fields in the plan, or v7, which numbered the format field over
// the ten-row table — must read as a corrupt miss, never replay as another
// plan, and be overwritten by the retune. The v5 file is the current one with
// its version word rewritten; the v6 and v7 files are well-formed entries for
// the same key, checksums included, so the version check alone turns them
// away. (v7 shares today's layout; internal/autotune's
// TestStoreV7EntriesAreMisses walks every old format number.)
func TestAutoKernelRetunesOverV5CacheEntry(t *testing.T) {
	A, err := GeneratePoisson2D(24)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := []AutoOption{AutoCacheDir(dir), AutoMaxThreads(2), AutoTrialIters(2)}
	k, _, err := AutoKernel(A, opts...)
	if err != nil {
		t.Fatal(err)
	}
	k.Close()
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("want one cache entry in %s, got %d (err %v)", dir, len(ents), err)
	}
	path := filepath.Join(dir, ents[0].Name())
	current, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// magic(4) | version u32 LE | fingerprint u64 | machineLen u32 | machine |
	// nv u32 | kind u8 | format u32 | threads u32 | reorder u8 | score f64 | crc u32
	if string(current[:4]) != "ATNC" || current[4] != 8 {
		t.Fatalf("cache entry header % x: not an ATNC v8 file", current[:8])
	}
	v5 := bytes.Clone(current)
	v5[4] = 5
	keyEnd := 20 + int(binary.LittleEndian.Uint32(current[16:])) + 4 // through nv
	v6 := bytes.Clone(current[:keyEnd])
	v6[4] = 6
	v6 = binary.LittleEndian.AppendUint32(v6, 1)     // keyDomains
	v6 = append(v6, current[keyEnd:keyEnd+10]...)    // kind, format, threads, reorder
	v6 = append(v6, 0, 0, 0, 0, 0, 0)                // hub, domains, hierarchical
	v6 = append(v6, current[keyEnd+10:keyEnd+18]...) // score
	v6 = binary.LittleEndian.AppendUint32(v6, crc32.ChecksumIEEE(v6))
	v7 := bytes.Clone(current[:len(current)-4])
	v7[4] = 7
	v7 = binary.LittleEndian.AppendUint32(v7, crc32.ChecksumIEEE(v7))

	for _, old := range []struct {
		name string
		file []byte
	}{{"v5", v5}, {"v6", v6}, {"v7", v7}} {
		if err := os.WriteFile(path, old.file, 0o644); err != nil {
			t.Fatal(err)
		}
		before := AutoCacheStats()
		k2, d2, err := AutoKernel(A, opts...)
		if err != nil {
			t.Fatal(err)
		}
		k2.Close()
		after := AutoCacheStats()
		if d2.CacheHit || d2.Trials == 0 {
			t.Fatalf("%s entry: CacheHit=%v Trials=%d, want a retune", old.name, d2.CacheHit, d2.Trials)
		}
		if after.CorruptMisses != before.CorruptMisses+1 || after.Hits != before.Hits {
			t.Fatalf("%s entry counted as %+v → %+v, want one more corrupt miss", old.name, before, after)
		}
		rewritten, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if rewritten[4] != 8 {
			t.Fatalf("%s entry still at version %d after the retune", old.name, rewritten[4])
		}
		k3, d3, err := AutoKernel(A, opts...)
		if err != nil {
			t.Fatal(err)
		}
		k3.Close()
		if !d3.CacheHit {
			t.Fatalf("the entry overwritten over %s does not hit", old.name)
		}
	}
}
