package core

import "repro/internal/color"

// Traffic is the exact per-iteration memory-traffic and flop account of one
// symmetric SpM×V under a given kernel configuration. The platform
// performance model (internal/perfmodel) converts these byte/flop counts into
// predicted times for the paper's Dunnington and Gainestown machines; the
// counts themselves are measured from the real data structures, not
// estimated.
//
// Conventions: 8-byte values/vector elements, 4-byte indices, write-allocate
// stores (a store moves the cache line in and out, counted as 2× here only
// for full-vector streaming writes where the paper's working-set equations
// count 8 bytes per element — we follow the paper and count 8 bytes per
// element access so the model reproduces Eqs. (3)–(6) exactly).
type Traffic struct {
	// Multiplication phase.
	MultMatrixBytes int64 // matrix stream: values + indices + row pointers + dvalues
	MultVectorBytes int64 // x reads + y writes + local-vector writes
	MultFlops       int64 // 2 flops per stored off-diagonal element pair use + 2 per diagonal

	// Reduction phase. RedWorkingSet matches the paper's ws equations.
	RedBytes int64 // local reads + y read-modify-write + index reads
	RedFlops int64

	// WorkingSetOverhead is the paper's ws metric for the chosen method:
	// Eq. (3) naive, Eq. (4) effective ranges, Eq. (5)/(6) indexing (exact,
	// using the measured index length rather than the density approximation).
	WorkingSetOverhead int64

	// ExtraBarriers counts barrier crossings beyond the one closing each
	// priced phase (Colored method only: the phase-1 → phase-2 boundary of a
	// schedule that defers anything). The platform model prices them by
	// Platform.BarrierSeconds.
	ExtraBarriers int64
	// Busy is how many threads the colored schedule's phases keep busy
	// (color.Schedule.Busy); zero for the reduction methods, which split the
	// rows evenly.
	Busy float64
}

// TotalBytes reports the summed traffic of both phases.
func (t Traffic) TotalBytes() int64 {
	return t.MultMatrixBytes + t.MultVectorBytes + t.RedBytes
}

// TotalFlops reports the summed useful flops of both phases.
func (t Traffic) TotalFlops() int64 { return t.MultFlops + t.RedFlops }

// Account is the one per-method byte account: the paper's working-set
// equations (3)–(6) for a kernel of method m at p threads whose matrix stream
// is matrixBytes over the stored elements st, with the conflict counts cf.
// The built kernels, CSX-Sym's cost and the tuner's pre-build estimate all
// price through it; they differ only in where matrixBytes and cf come from.
func Account(m ReductionMethod, p int, matrixBytes int64, st Stored, cf Conflicts) Traffic {
	n, pp := st.N, int64(p)
	t := Traffic{
		MultMatrixBytes: matrixBytes,
		// Useful flops: diagonal contributes 2 flops per stored slot (mul+add
		// folded as 2), every stored lower element contributes 4 (two mul-add
		// pairs; the skew sign flip and the structural UVal read cost no
		// flops).
		MultFlops: 2*st.Diag + 4*st.Lower,
	}
	// Vector traffic common to all methods: x is read (streamed once, n
	// elements — reuse beyond that is the cache's job, which the platform
	// model handles via its bandwidth term), y is written once per row.
	xBytes := 8 * n
	yBytes := 8 * n

	switch m {
	case Naive:
		// All output writes land in p full-length local vectors: working-set
		// overhead ws = 8pN (Eq. 3). Reduction streams p locals + y.
		t.MultVectorBytes = xBytes + 8*pp*n
		t.RedBytes = 8*pp*n + yBytes
		t.RedFlops = pp * n
		t.WorkingSetOverhead = 8 * pp * n
	case EffectiveRanges:
		// Own rows write y directly; effective regions total Σ start_t
		// elements ≈ (p-1)N/2, ws = 8·Σ start_t ≈ 4(p-1)N (Eq. 4).
		eff := cf.Region
		t.MultVectorBytes = xBytes + yBytes + 8*eff
		t.RedBytes = 8*eff + yBytes
		t.RedFlops = eff
		t.WorkingSetOverhead = 8 * eff
	case Indexed:
		// Only touched local elements and the (vid, idx) pairs move:
		// ws = 8·E (touched locals) + 8·E (index pairs) with E = |index|,
		// the exact form of Eq. (5).
		e := cf.IndexLen
		t.MultVectorBytes = xBytes + yBytes + 8*e
		t.RedBytes = 8*e /* locals */ + 8*e /* index */ + 8*e /* y updates */
		t.RedFlops = e
		t.WorkingSetOverhead = 16 * e
	case Colored:
		// Conflict prevention: zero reduction traffic and zero working-set
		// overhead. y is written once, by phase 1, and each deferred element
		// read-modify-writes one more y element in phase 2; the second phase
		// costs one barrier on top of the first phase's own.
		t.MultVectorBytes = xBytes + yBytes + 16*cf.Deferred
		t.ExtraBarriers = int64(cf.Colors - 1)
		t.Busy = cf.Busy
	}
	return t
}

// Stored counts what a symmetric-storage matrix holds: N rows, Lower stored
// strict-lower elements, Diag dense diagonal slots (none for Skew) and Upper
// upper values (Structural only).
type Stored struct{ N, Lower, Diag, Upper int64 }

// StoredOf counts s.
func StoredOf(s *SSS) Stored {
	return Stored{int64(s.N), int64(len(s.Val)), int64(len(s.DValues)), int64(len(s.UVal))}
}

// SSSBytes is the SSS matrix stream: lower values (8B) + column indices (4B)
// + row pointers (4B per row) + dense diagonal (8B per stored slot) + upper
// values (8B per stored slot).
func (st Stored) SSSBytes() int64 { return 12*st.Lower + 4*st.N + 8*st.Diag + 8*st.Upper }

// Conflicts are the counts a reduction method's traffic depends on beyond the
// matrix itself; each method reads its own and ignores the rest.
type Conflicts struct {
	IndexLen int64 // Indexed: conflict-index entries
	Region   int64 // EffectiveRanges: Σ start_t, the effective regions' total
	// Colored: the schedule's deferred elements, phases and busy threads.
	Deferred int64
	Colors   int
	Busy     float64
}

func scheduleConflicts(sc *color.Schedule) Conflicts {
	return Conflicts{Deferred: sc.Deferred, Colors: sc.NumColors, Busy: sc.Busy}
}

// ScanConflicts returns the conflict counts a kernel of method m on s at p
// threads will have, from the symbolic scans alone (ConflictIndexDensity,
// color.Build): what the tuner prices a format with before building it.
func ScanConflicts(s *SSS, m ReductionMethod, p int) Conflicts {
	switch m {
	case Naive:
		return Conflicts{}
	case Colored:
		return scheduleConflicts(color.Build(s.N, s.RowPtr, s.ColIdx, p, color.Options{}))
	}
	e, region, _ := ConflictIndexDensity(s, p)
	return Conflicts{IndexLen: e, Region: region}
}

// Traffic computes the exact per-iteration account for this kernel.
func (k *Kernel) Traffic() Traffic {
	cf := Conflicts{IndexLen: int64(k.IndexLen()), Region: k.EffectiveRegionSize()}
	if k.sched != nil {
		cf = scheduleConflicts(k.sched)
	}
	st := StoredOf(k.S)
	return Account(k.Method, k.p, st.SSSBytes(), st, cf)
}

// SerialTraffic reports the traffic of the serial SSS kernel (Alg. 2), the
// baseline of Fig. 5's overhead ratios: the one-colour schedule at p = 1,
// which writes y once and defers nothing.
func SerialTraffic(s *SSS) Traffic {
	st := StoredOf(s)
	return Account(Colored, 1, st.SSSBytes(), st, Conflicts{Colors: 1})
}

// DotBytes is the vector traffic the fused inner product adds to one
// operation over nv lanes of n elements, by phase: Indexed and Colored run a
// trailing full sweep reading x and y (multiply-phase work); the other
// methods fold the dot into the reduction, which then reads x alongside the
// y stream it already touches.
func (m ReductionMethod) DotBytes(n int64, nv int) (mult, red int64) {
	lanes := 8 * n * int64(nv)
	switch m {
	case Indexed, Colored:
		return 2 * lanes, 0
	}
	return 0, lanes
}
