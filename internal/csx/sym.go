package csx

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// SymMatrix is a CSX-Sym matrix: the strict lower triangle encoded as
// per-thread CSX blobs (substructures detected only in the lower half, each
// implying its symmetric counterpart), plus a dense diagonal array exactly
// like SSS. Units whose symmetric writes would straddle the thread's
// local/direct boundary are never encoded as substructures — the legality
// rule of Fig. 8 — so the multiply kernel decides local-vs-direct once per
// unit instead of once per element.
type SymMatrix struct {
	N       int
	DValues []float64
	Blobs   []*Blob
	Part    *partition.RowPartition
	Method  core.ReductionMethod
	LV      *core.LocalVectors

	nnzLower int

	// curX/curY are the operands of the operation in flight: the two phase
	// lists are assembled once, on first use, as closures over these slots
	// (like core.Kernel's), so a product allocates nothing. dot holds the
	// per-thread partial sums of MulVecDot, one cache line apart.
	curX, curY   []float64
	plain, fused parallel.PhaseList
	dot          []float64
}

// symMetrics files CSX-Sym products under the SpM×V metric families.
var symMetrics = parallel.NewOpMetrics("symspmv_spmv", "csx-sym")

// NewSym encodes an SSS matrix into CSX-Sym with p per-thread blobs and the
// given local-vectors reduction method (the paper pairs CSX-Sym with the
// indexed reduction; Naive/EffectiveRanges are supported for ablations).
func NewSym(s *core.SSS, p int, method core.ReductionMethod, opts Options) *SymMatrix {
	if s.Kind != core.Sym {
		// The CSX-Sym encoder bakes the symmetric scatter into its unit
		// bodies; encoding a skew or structural matrix would silently compute
		// the wrong operator.
		panic(fmt.Sprintf("csx: NewSym supports only symmetric matrices, got %s", s.Kind))
	}
	// The encoder walks RowPtr/ColIdx as trustingly as the SSS kernels do.
	if err := s.Validate(); err != nil {
		panic(err)
	}
	part := partition.ByNNZ(s.RowPtr, p)
	sm := &SymMatrix{
		N:        s.N,
		DValues:  s.DValues,
		Blobs:    make([]*Blob, p),
		Part:     part,
		Method:   method,
		nnzLower: len(s.Val),
	}
	pool := parallel.NewPool(p)
	defer pool.Close()
	pool.Run(func(tid int) {
		el, lo, _ := buildElements(s.RowPtr, s.ColIdx, part.Start[tid], part.End[tid])
		sm.Blobs[tid] = encodeRange(el, s.Val[lo:], opts, part.Start[tid])
	})
	var touched [][]int32
	if method == core.Indexed {
		touched = core.TouchedColumns(s, part, pool)
	}
	sm.LV = core.NewLocalVectors(s.N, part, method, touched)
	return sm
}

// NNZLower reports the stored strict-lower-triangle nonzeros.
func (sm *SymMatrix) NNZLower() int { return sm.nnzLower }

// LogicalNNZ reports the nonzeros of the full symmetric operator (dense
// diagonal counted, as in SSS).
func (sm *SymMatrix) LogicalNNZ() int { return 2*sm.nnzLower + sm.N }

// Bytes reports the encoded size: ctl streams + values + dvalues. The
// local-vector index is the reduction phase's working set, not part of the
// matrix representation (Table I excludes it too).
func (sm *SymMatrix) Bytes() int64 {
	var sum int64
	for _, b := range sm.Blobs {
		sum += b.Bytes()
	}
	return sum + int64(8*sm.N)
}

// CompressionRatio reports 1 − Bytes/CSRBytes against the CSR size of the
// full operator (the Table I metric).
func (sm *SymMatrix) CompressionRatio() float64 {
	csrBytes := int64(12*sm.LogicalNNZ()) + int64(4*(sm.N+1))
	return 1 - float64(sm.Bytes())/float64(csrBytes)
}

// MaxSymCompressionRatio reports the Table I "C.R. (Max.)" bound: a
// hypothetical symmetric format storing only the 8-byte values of the lower
// triangle and diagonal, with no indexing information at all.
func MaxSymCompressionRatio(nnzLower, n int) float64 {
	logical := int64(2*nnzLower + n)
	csrBytes := 12*logical + int64(4*(n+1))
	symBytes := int64(8*nnzLower) + int64(8*n)
	return 1 - float64(symBytes)/float64(csrBytes)
}

// assemble builds the two operations — multiply→reduce, and the same with
// the dot fused into the reduction — over the operand slots.
func (sm *SymMatrix) assemble() {
	mult := parallel.ComputePhase("csx-sym/multiply", func(tid int) { sm.multiplyT(tid, sm.curX, sm.curY) })
	sm.dot = make([]float64, len(sm.Blobs)*core.DotStride)
	sm.plain = parallel.PhaseList{Metrics: symMetrics,
		Phases: append([]parallel.Phase{mult}, sm.LV.ReducePhases("csx-sym", &sm.curX, &sm.curY, nil)...)}
	sm.fused = parallel.PhaseList{Metrics: symMetrics,
		Phases: append([]parallel.Phase{mult}, sm.LV.ReducePhases("csx-sym", &sm.curX, &sm.curY, sm.dot)...)}
}

// MulVec computes y = A·x on pool: the CSX-Sym multiplication phase (dual
// writes per stored element, unit-level local/direct routing) followed by
// the configured local-vectors reduction, one prebuilt phase list the pool
// runs in one coordinator handoff.
func (sm *SymMatrix) MulVec(pool *parallel.Pool, x, y []float64) {
	sm.run(pool, &sm.plain, x, y)
}

// MulVecDot computes y = A·x and returns xᵀ·y, with the dot fused into the
// reduction phase exactly like core.Kernel.MulVecDot — the CG fast path for
// CSX-Sym kernels.
func (sm *SymMatrix) MulVecDot(pool *parallel.Pool, x, y []float64) float64 {
	sm.run(pool, &sm.fused, x, y)
	total := 0.0
	for t := range sm.Blobs {
		total += sm.dot[t*core.DotStride]
	}
	return total
}

func (sm *SymMatrix) run(pool *parallel.Pool, l *parallel.PhaseList, x, y []float64) {
	sm.checkDims(pool, x, y)
	if l.Phases == nil {
		sm.assemble()
	}
	sm.curX, sm.curY = x, y
	pool.RunPhaseList(l)
	sm.curX, sm.curY = nil, nil
}

func (sm *SymMatrix) checkDims(pool *parallel.Pool, x, y []float64) {
	if pool.Size() != len(sm.Blobs) {
		panic(fmt.Sprintf("csx: pool size %d != blob count %d", pool.Size(), len(sm.Blobs)))
	}
	if len(x) != sm.N || len(y) != sm.N {
		panic(fmt.Sprintf("csx: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			sm.N, sm.N, len(x), len(y)))
	}
}

// multiplyT runs thread tid's slice of the CSX-Sym multiplication phase.
func (sm *SymMatrix) multiplyT(tid int, x, y []float64) {
	b := sm.Blobs[tid]
	local := sm.LV.Vecs[tid]
	if sm.Method == core.Naive {
		// Naive semantics: *every* write goes to the thread's
		// full-length local vector and the reduction overwrites y.
		// Passing the local as both output and local with a boundary
		// beyond every column routes all unit writes there.
		for r := b.StartRow; r < b.EndRow; r++ {
			local[r] = sm.DValues[r] * x[r]
		}
		mulBlobSym(b, int32(sm.N)+1, x, local, local)
		return
	}
	// Effective-ranges/indexed: initialize the own range with the
	// diagonal contribution; every subsequent write accumulates.
	for r := b.StartRow; r < b.EndRow; r++ {
		y[r] = sm.DValues[r] * x[r]
	}
	mulBlobSym(b, sm.Part.Start[tid], x, y, local)
}

// mulBlobSym is the CSX-Sym decode-multiply kernel. For every unit the
// symmetric (transposed) writes go either to the local vector (unit columns
// < boundary) or directly to y (unit columns ≥ boundary); the encoder
// guarantees no unit straddles. The bodies follow DESIGN.md §17.2: a unit's
// values and its x, y and target windows are cut once, by checked slice
// expressions, and the element loops range over slices of proved length; a
// block is read column by column with one accumulator per block row, its
// scatter terms folded into one read-modify-write per column. Results are
// bitwise those of the row-major loops in decode_ref_test.go.
func mulBlobSym(b *Blob, boundary int32, x, y, local []float64) {
	// A slice expression is checked against the capacity: clamp it to the
	// length, so that a window past len panics instead of reading on.
	ctl, vals := b.Ctl, b.Vals[:len(b.Vals):len(b.Vals)]
	x, y, local = x[:len(x):len(x)], y[:len(y):len(y)], local[:len(local):len(local)]
	row, col, bound := int(b.StartRow)-1, 0, int(boundary)
	for i := 0; i < len(ctl); {
		flags, size := ctl[i], int(ctl[i+1])
		i += 2
		if flags&flagNR != 0 {
			row++
			if flags&flagRJMP != 0 {
				jump, n := readUvarint(ctl, i)
				i += n
				row += int(jump)
			}
			col = 0
		}
		d, n := readUvarint(ctl, i)
		i += n
		col += int(d)

		// Unit-level routing: all columns of a unit sit on one side.
		target := y
		if col < bound {
			target = local
		}
		vv := vals[:size]
		vals = vals[size:]

		switch pat := Pattern(flags & patternMask); pat {
		case Delta8:
			xr, v := x[row], vv[0]
			sum := v * x[col]     // gather
			target[col] += v * xr // scatter
			for _, v := range vv[1:] {
				col += int(ctl[i]) // delta
				i++
				sum += v * x[col]     // gather
				target[col] += v * xr // scatter
			}
			y[row] += sum
		case Delta16:
			xr, v := x[row], vv[0]
			sum := v * x[col]     // gather
			target[col] += v * xr // scatter
			for _, v := range vv[1:] {
				col += int(ctl[i]) | int(ctl[i+1])<<8 // delta
				i += 2
				sum += v * x[col]     // gather
				target[col] += v * xr // scatter
			}
			y[row] += sum
		case Delta32:
			xr, v := x[row], vv[0]
			sum := v * x[col]     // gather
			target[col] += v * xr // scatter
			for _, v := range vv[1:] {
				col += int(ctl[i]) | int(ctl[i+1])<<8 | int(ctl[i+2])<<16 | int(ctl[i+3])<<24 // delta
				i += 4
				sum += v * x[col]     // gather
				target[col] += v * xr // scatter
			}
			y[row] += sum
		case Horizontal:
			xr, xw, tw := x[row], x[col:][:size], target[col:][:size]
			sum := 0.0
			for k, v := range vv {
				sum += v * xw[k]
				tw[k] += v * xr
			}
			y[row] += sum
			col += size - 1
		case Vertical:
			xv, xw, yw := x[col], x[row:][:size], y[row:][:size]
			tsum := 0.0
			for k, v := range vv {
				yw[k] += v * xv
				tsum += v * xw[k]
			}
			target[col] += tsum
		case Diagonal:
			// A sub-diagonal run writes y[r] as row r and again as column r
			// of the next element when target is y: element order stays.
			xw, yw := x[row:][:size], y[row:][:size]
			xc, tw := x[col:][:size], target[col:][:size]
			for k, v := range vv {
				yw[k] += v * xc[k]
				tw[k] += v * xw[k]
			}
		case AntiDiagonal:
			for k, v := range vv {
				r, c := row+k, col-k
				y[r] += v * x[c]
				target[c] += v * x[r]
			}
		case Block2:
			w := size / 2
			a0, a1 := vv[:w], vv[w:][:w]
			xw, tw := x[col:][:w], target[col:][:w]
			xr, yw := (*[2]float64)(x[row:]), (*[2]float64)(y[row:])
			s0, s1 := 0.0, 0.0
			for k, xc := range xw {
				s0 += a0[k] * xc
				s1 += a1[k] * xc
				tw[k] = (tw[k] + a0[k]*xr[0]) + a1[k]*xr[1]
			}
			yw[0] += s0
			yw[1] += s1
			col += w - 1
		case Block3:
			w := size / 3
			xr, yw := (*[3]float64)(x[row:]), (*[3]float64)(y[row:])
			xr0, xr1, xr2 := xr[0], xr[1], xr[2]
			s0, s1, s2 := 0.0, 0.0, 0.0
			switch size {
			case 18:
				a, xw, tw := (*[18]float64)(vv), (*[6]float64)(x[col:]), (*[6]float64)(target[col:])
				s0, s1, s2 = s0+a[0]*xw[0], s1+a[6]*xw[0], s2+a[12]*xw[0]
				tw[0] = ((tw[0] + a[0]*xr0) + a[6]*xr1) + a[12]*xr2
				s0, s1, s2 = s0+a[1]*xw[1], s1+a[7]*xw[1], s2+a[13]*xw[1]
				tw[1] = ((tw[1] + a[1]*xr0) + a[7]*xr1) + a[13]*xr2
				s0, s1, s2 = s0+a[2]*xw[2], s1+a[8]*xw[2], s2+a[14]*xw[2]
				tw[2] = ((tw[2] + a[2]*xr0) + a[8]*xr1) + a[14]*xr2
				s0, s1, s2 = s0+a[3]*xw[3], s1+a[9]*xw[3], s2+a[15]*xw[3]
				tw[3] = ((tw[3] + a[3]*xr0) + a[9]*xr1) + a[15]*xr2
				s0, s1, s2 = s0+a[4]*xw[4], s1+a[10]*xw[4], s2+a[16]*xw[4]
				tw[4] = ((tw[4] + a[4]*xr0) + a[10]*xr1) + a[16]*xr2
				s0, s1, s2 = s0+a[5]*xw[5], s1+a[11]*xw[5], s2+a[17]*xw[5]
				tw[5] = ((tw[5] + a[5]*xr0) + a[11]*xr1) + a[17]*xr2
			case 6:
				a, xw, tw := (*[6]float64)(vv), (*[2]float64)(x[col:]), (*[2]float64)(target[col:])
				s0, s1, s2 = s0+a[0]*xw[0], s1+a[2]*xw[0], s2+a[4]*xw[0]
				tw[0] = ((tw[0] + a[0]*xr0) + a[2]*xr1) + a[4]*xr2
				s0, s1, s2 = s0+a[1]*xw[1], s1+a[3]*xw[1], s2+a[5]*xw[1]
				tw[1] = ((tw[1] + a[1]*xr0) + a[3]*xr1) + a[5]*xr2
			default:
				a0, a1, a2 := vv[:w], vv[w:][:w], vv[2*w:][:w]
				xw, tw := x[col:][:w], target[col:][:w]
				for k, xc := range xw {
					s0 += a0[k] * xc
					s1 += a1[k] * xc
					s2 += a2[k] * xc
					tw[k] = ((tw[k] + a0[k]*xr0) + a1[k]*xr1) + a2[k]*xr2
				}
			}
			yw[0] += s0
			yw[1] += s1
			yw[2] += s2
			col += w - 1
		default:
			panic(fmt.Sprintf("csx: unknown pattern %d in ctl stream", pat))
		}
	}
}
