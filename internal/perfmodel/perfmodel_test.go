package perfmodel

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/csx"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

func TestBandwidthSaturates(t *testing.T) {
	for _, pl := range Platforms {
		prev := 0.0
		for p := 1; p <= pl.ThreadsMax; p++ {
			bw := pl.Bandwidth(p)
			if bw < prev {
				t.Fatalf("%s: bandwidth decreased at p=%d: %g < %g", pl.Name, p, bw, prev)
			}
			prev = bw
		}
		if max := pl.Bandwidth(pl.ThreadsMax); max > float64(pl.Sockets)*pl.BWSocket+1e-9 {
			t.Fatalf("%s: bandwidth %g exceeds socket limit", pl.Name, max)
		}
	}
	// Table II: sustained bandwidth at max threads matches the paper.
	if got := Dunnington.Bandwidth(24); got != 5.4 {
		t.Errorf("Dunnington sustained B/W = %g, want 5.4", got)
	}
	if got := Gainestown.Bandwidth(16); got != 31.0 {
		t.Errorf("Gainestown sustained B/W = %g, want 31.0", got)
	}
}

func TestPhaseSecondsMonotonicInWork(t *testing.T) {
	pl := Dunnington
	base := pl.PhaseSeconds(8, 1e6, 1e6)
	if pl.PhaseSeconds(8, 2e6, 1e6) < base || pl.PhaseSeconds(8, 1e6, 2e6) < base {
		t.Fatal("PhaseSeconds not monotone in flops/bytes")
	}
	if pl.PhaseSeconds(8, 0, 0) <= 0 {
		t.Fatal("empty phase should still cost a barrier")
	}
}

func TestSMTAddsNoFlops(t *testing.T) {
	pl := Gainestown // 8 cores, 16 threads
	// A purely compute-bound phase must not speed up past 8 threads.
	t8 := pl.PhaseSeconds(8, 1e12, 0)
	t16 := pl.PhaseSeconds(16, 1e12, 0)
	if t16 < t8 {
		t.Fatalf("SMT threads added flop throughput: %g < %g", t16, t8)
	}
}

func TestXMissFraction(t *testing.T) {
	pl := Gainestown
	if m := pl.XMissFraction(0); m != 0 {
		t.Errorf("zero span: miss %g", m)
	}
	if m := pl.XMissFraction(pl.XCachePerThreadBytes / 2); m != 0 {
		t.Errorf("fitting span: miss %g", m)
	}
	if m := pl.XMissFraction(pl.XCachePerThreadBytes * 4); m <= 0 || m >= 1 {
		t.Errorf("oversized span: miss %g outside (0,1)", m)
	}
}

func TestWithCacheScale(t *testing.T) {
	pl := Dunnington.WithCacheScale(0.5)
	if pl.XCachePerThreadBytes != Dunnington.XCachePerThreadBytes/2 {
		t.Fatalf("cache not scaled: %d", pl.XCachePerThreadBytes)
	}
	same := Dunnington.WithCacheScale(1)
	if same.XCachePerThreadBytes != Dunnington.XCachePerThreadBytes {
		t.Fatalf("scale 1 changed cache")
	}
}

func buildSuite(t *testing.T) (*csr.Matrix, *core.SSS, *core.Kernel, *csx.SymMatrix, *parallel.Pool) {
	t.Helper()
	rng := rand.New(rand.NewSource(81))
	const n = 2000
	m := matrix.NewCOO(n, n, n*6)
	m.Symmetric = true
	for r := 0; r < n; r++ {
		m.Add(r, r, 8)
		for d := 1; d <= 5 && r-d >= 0; d++ {
			m.Add(r, r-d, rng.NormFloat64())
		}
	}
	m.Normalize()
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(8)
	t.Cleanup(pool.Close)
	k := core.NewKernel(s, core.Indexed, pool)
	sym := csx.NewSym(s, 8, core.Indexed, csx.DefaultOptions())
	return csr.FromCOO(m), s, k, sym, pool
}

func TestCostOrderingOnBandedMatrix(t *testing.T) {
	a, s, k, sym, _ := buildSuite(t)
	const p = 8
	for _, pl := range Platforms {
		csrC := CSRCost(a)
		sssC := SSSCost(k)
		symC := CSXSymCost(sym, s)
		tCSR := csrC.Seconds(pl, p)
		tSSS := sssC.Seconds(pl, p)
		tSym := symC.Seconds(pl, p)
		// On a banded matrix at moderate thread counts the paper's ordering
		// must hold: CSX-Sym < SSS-idx < CSR.
		if !(tSym < tSSS && tSSS < tCSR) {
			t.Errorf("%s: ordering violated: CSXSym=%g SSS=%g CSR=%g", pl.Name, tSym, tSSS, tCSR)
		}
		// Gflop/s must use the logical operator flops for all formats.
		if csrC.UsefulFlops < sssC.UsefulFlops-int64(2*s.N) ||
			csrC.UsefulFlops > sssC.UsefulFlops+int64(2*s.N) {
			t.Errorf("useful flops differ beyond the diagonal slack: %d vs %d",
				csrC.UsefulFlops, sssC.UsefulFlops)
		}
	}
}

func TestGflops(t *testing.T) {
	if g := Gflops(2e9, 1.0); g != 2.0 {
		t.Fatalf("Gflops = %g", g)
	}
	if g := Gflops(1, 0); g != 0 {
		t.Fatalf("Gflops with zero time = %g", g)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("Dunnington"); !ok {
		t.Fatal("Dunnington missing")
	}
	if _, ok := ByName("Cray-1"); ok {
		t.Fatal("unexpected platform")
	}
}
