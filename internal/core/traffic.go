package core

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
	// priced phase (Colored method only: the colors−1 additional phase
	// boundaries of the conflict-free schedule, plus the init→color one).
	// The platform model prices them by Platform.BarrierSeconds.
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

// Traffic computes the exact per-iteration account for this kernel.
func (k *Kernel) Traffic() Traffic {
	s := k.S
	n := int64(s.N)
	nnzLower := int64(len(s.Val))
	p := int64(k.p)

	var t Traffic
	// Matrix stream: lower values (8B) + column indices (4B) + row pointers
	// (4B per row) + dense diagonal (8B per stored slot — absent for Skew) +
	// upper values (8B per stored slot — Structural only).
	t.MultMatrixBytes = 12*nnzLower + 4*n + 8*int64(len(s.DValues)) + 8*int64(len(s.UVal))
	// Useful flops: diagonal contributes 2 flops per stored slot (mul+add
	// folded as 2), every stored lower element contributes 4 (two mul-add
	// pairs; the skew sign flip and the structural UVal read cost no flops).
	t.MultFlops = 2*int64(len(s.DValues)) + 4*nnzLower

	// Vector traffic common to all methods: x is read (streamed once, n
	// elements — reuse beyond that is the cache's job, which the platform
	// model handles via its bandwidth term), y is written once per row.
	xBytes := 8 * n
	yBytes := 8 * n

	switch k.Method {
	case Naive:
		// All output writes land in p full-length local vectors: working-set
		// overhead ws = 8pN (Eq. 3). Reduction streams p locals + y.
		t.MultVectorBytes = xBytes + 8*p*n
		t.RedBytes = 8*p*n + yBytes
		t.RedFlops = p * n
		t.WorkingSetOverhead = 8 * p * n
	case EffectiveRanges:
		// Own rows write y directly; effective regions total Σ start_t
		// elements ≈ (p-1)N/2, ws = 8·Σ start_t ≈ 4(p-1)N (Eq. 4).
		eff := k.EffectiveRegionSize()
		t.MultVectorBytes = xBytes + yBytes + 8*eff
		t.RedBytes = 8*eff + yBytes
		t.RedFlops = eff
		t.WorkingSetOverhead = 8 * eff
	case Indexed:
		// Only touched local elements and the (vid, idx) pairs move:
		// ws = 8·E (touched locals) + 8·E (index pairs) with E = |index|,
		// the exact form of Eq. (5).
		e := int64(k.LV.IndexLen())
		t.MultVectorBytes = xBytes + yBytes + 8*e
		t.RedBytes = 8*e /* locals */ + 8*e /* index */ + 8*e /* y updates */
		t.RedFlops = e
		t.WorkingSetOverhead = 16 * e
	case Colored:
		// Conflict prevention: zero reduction traffic and zero working-set
		// overhead. y moves twice through the multiply — written by the
		// diagonal-init pass, then read-modify-written by the color sweep —
		// and the phase chain costs one barrier per color on top of the
		// multiply phase's own closing barrier.
		t.MultVectorBytes = xBytes + yBytes + 2*yBytes
		t.RedBytes = 0
		t.RedFlops = 0
		t.WorkingSetOverhead = 0
		t.ExtraBarriers = int64(k.sched.NumColors)
		t.Busy = k.sched.Busy
	}
	return t
}

// SerialTraffic reports the traffic of the serial SSS kernel (Alg. 2), the
// baseline of Fig. 5's overhead ratios.
func SerialTraffic(s *SSS) Traffic {
	n := int64(s.N)
	nnzLower := int64(len(s.Val))
	return Traffic{
		MultMatrixBytes: 12*nnzLower + 4*n + 8*int64(len(s.DValues)) + 8*int64(len(s.UVal)),
		MultVectorBytes: 16 * n, // x streamed + y written
		MultFlops:       2*int64(len(s.DValues)) + 4*nnzLower,
	}
}
