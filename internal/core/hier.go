package core

import (
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// Hierarchical two-level reduction for domain-structured pools.
//
// On a multi-domain pool the flat reduction is a machine-wide all-to-all:
// every reduction worker reads every other worker's local-vector fragments,
// so most of the reduction stream crosses a domain (socket) boundary — the
// traffic Schubert/Hager/Fehske identify as the SpMV scaling killer. The
// hierarchical schedule replaces it with
//
//	multiply (domain-local barrier)
//	→ intra-domain combine (domain workers fold their own locals)
//	→ cross-domain fold (only shard-boundary overlap windows move)
//
// Domain d owns the contiguous row shard [ds_d, de_d) (partition.ByNNZDomains
// aligns worker partitions to shard starts). Transposed writes target strictly
// earlier rows, so domain d's workers only ever touch rows in [low_d, de_d),
// where low_d = min ColIdx over the shard's rows: rows [low_d, ds_d) are the
// shard-boundary overlap window, the ONLY data that must cross domains. The
// intra-domain combine folds the shard's own rows straight into y (no other
// domain writes them) and stages the window into buf[d]; the cross fold then
// adds the D−1 windows into y. Cross-domain reduction bytes drop from
// O(p·N) / O(Σ start_t) to 8·Σ_d |window_d| — a function of the matrix
// bandwidth, not the vector length.
//
// The intra combine runs after a domain-LOCAL barrier: it reads only its own
// domain's locals and writes only rows/buffers no other domain touches, so it
// never waits for the slowest remote multiply. Only the final fold needs the
// global barrier. Per output element the float additions are regrouped
// relative to the flat reduction (domain partials first), so multi-domain
// results agree with the serial reference to rounding (≤ 1e-12 relative);
// single-domain pools never build this state and stay bitwise identical.

// xdomainBytes exports the modeled cross-domain reduction stream of the most
// recently built hierarchical kernel — the quantity the two-level schedule
// exists to shrink.
var xdomainBytes = obs.NewGauge("symspmv_xdomain_bytes",
	"Modeled cross-domain reduction bytes per operation of the most recently built hierarchical kernel.")

// hierState is the domain-level reduction plan of one hierarchical kernel.
type hierState struct {
	d       int
	wdom    []int // worker tid → domain
	domWlo  []int // domain → first worker tid
	domWhi  []int // domain → one past last worker tid
	domPart *partition.RowPartition

	// low[d] is the smallest column any of domain d's rows reference
	// (clamped to the shard start); rows [low[d], domPart.Start[d]) form the
	// shard-boundary overlap window staged in buf[d]. buf[0] is always empty.
	low []int32
	buf [][]float64

	// combLo/combHi chunk worker tid's slice of its domain's combine range
	// [low[d], domPart.End[d]) for the intra-domain phase.
	combLo, combHi []int32

	idx *hierIndexed // Indexed method only

	// crossBytes is the modeled cross-domain reduction stream: 8 bytes per
	// window element (naive/effective) or per deduplicated cross apply entry
	// (indexed). Reported through Traffic.RedCrossBytes and the
	// symspmv_xdomain_bytes gauge.
	crossBytes int64

	// domHist[d] are the per-domain critical-path phase histograms
	// (multiply, reduce-intra, reduce-cross), fed by observe when sampling.
	domHist [][3]*obs.Histogram
}

// hierIndexed splits the Indexed method's conflict index by the domain of the
// source local vector: intra entries repair conflicts inside the source
// domain's own shard (applied to y under the local combine), cross entries
// fall into an earlier shard (accumulated into the staging window), and apply
// is the deduplicated (domain, idx) fold list of the final cross phase.
type hierIndexed struct {
	intra [][]IndexEntry // per worker, grouped into per-Vid runs
	cross [][]IndexEntry // per worker, grouped into per-Vid runs
	apply [][]IndexEntry // per worker, Vid = source domain, grouped per-domain
}

// newHierState builds the two-level reduction plan. Call after k.Part, k.LV
// and the pool are in place.
func newHierState(k *Kernel, domPart *partition.RowPartition) *hierState {
	pool := k.pool
	d := pool.Domains()
	p := k.p
	h := &hierState{d: d, domPart: domPart}
	h.wdom = make([]int, p)
	h.domWlo = make([]int, d)
	h.domWhi = make([]int, d)
	for dd := 0; dd < d; dd++ {
		lo, hi := pool.DomainWorkers(dd)
		h.domWlo[dd], h.domWhi[dd] = lo, hi
		for t := lo; t < hi; t++ {
			h.wdom[t] = dd
		}
	}
	s := k.S
	h.low = make([]int32, d)
	h.buf = make([][]float64, d)
	for dd := 0; dd < d; dd++ {
		ds, de := domPart.Start[dd], domPart.End[dd]
		low := ds
		for j := s.RowPtr[ds]; j < s.RowPtr[de]; j++ {
			if c := s.ColIdx[j]; c < low {
				low = c
			}
		}
		h.low[dd] = low
		h.buf[dd] = make([]float64, ds-low)
	}
	h.combLo = make([]int32, p)
	h.combHi = make([]int32, p)
	for dd := 0; dd < d; dd++ {
		span := int(domPart.End[dd] - h.low[dd])
		nw := h.domWhi[dd] - h.domWlo[dd]
		for i := 0; i < nw; i++ {
			lo, hi := parallel.Chunk(span, nw, i)
			t := h.domWlo[dd] + i
			h.combLo[t] = h.low[dd] + int32(lo)
			h.combHi[t] = h.low[dd] + int32(hi)
		}
	}
	switch k.Method {
	case Indexed:
		h.idx = buildHierIndexed(k.LV.index, h, p)
		total := 0
		for t := 0; t < p; t++ {
			total += len(h.idx.apply[t])
		}
		h.crossBytes = 8 * int64(total)
	default:
		for dd := 1; dd < d; dd++ {
			h.crossBytes += 8 * int64(len(h.buf[dd]))
		}
	}
	h.domHist = make([][3]*obs.Histogram, d)
	for dd := range h.domHist {
		lbl := strconv.Itoa(dd)
		for i, ph := range [...]string{"multiply", "reduce-intra", "reduce-cross"} {
			h.domHist[dd][i] = obs.NewHistogram("symspmv_domain_phase_seconds",
				"Critical-path per-domain phase time per sampled hierarchical operation.",
				obs.DurationBuckets, "domain", lbl, "phase", ph)
		}
	}
	return h
}

// buildHierIndexed splits the (Idx, Vid)-sorted conflict index into the
// three entry sets of the hierarchical schedule. Intra/cross sets are split
// among the source domain's workers (Idx-aligned, then regrouped into per-Vid
// runs exactly like the flat reduction); the apply set is deduplicated per
// (domain, idx), sorted by (Idx, Did), split among all p workers, then
// regrouped per-domain so each staging window streams sequentially. Per
// output element the apply runs arrive in ascending domain order, keeping the
// fold deterministic.
func buildHierIndexed(index []IndexEntry, h *hierState, p int) *hierIndexed {
	perDomIntra := make([][]IndexEntry, h.d)
	perDomCross := make([][]IndexEntry, h.d)
	for _, e := range index {
		dd := h.wdom[e.Vid]
		if e.Idx >= h.domPart.Start[dd] {
			perDomIntra[dd] = append(perDomIntra[dd], e)
		} else {
			perDomCross[dd] = append(perDomCross[dd], e)
		}
	}
	hi := &hierIndexed{
		intra: make([][]IndexEntry, p),
		cross: make([][]IndexEntry, p),
		apply: make([][]IndexEntry, p),
	}
	for dd := 0; dd < h.d; dd++ {
		nw := h.domWhi[dd] - h.domWlo[dd]
		for kind, ents := range [2][]IndexEntry{perDomIntra[dd], perDomCross[dd]} {
			split := splitIndex(ents, nw)
			grouped := groupByVid(ents, split)
			for i := 0; i < nw; i++ {
				s := grouped[split[i]:split[i+1]]
				if kind == 0 {
					hi.intra[h.domWlo[dd]+i] = s
				} else {
					hi.cross[h.domWlo[dd]+i] = s
				}
			}
		}
	}
	var apply []IndexEntry
	for dd := 1; dd < h.d; dd++ {
		prev := int32(-1)
		for _, e := range perDomCross[dd] { // (Idx, Vid)-sorted → Idx runs
			if e.Idx != prev {
				apply = append(apply, IndexEntry{Vid: int32(dd), Idx: e.Idx})
				prev = e.Idx
			}
		}
	}
	sort.Slice(apply, func(a, b int) bool {
		if apply[a].Idx != apply[b].Idx {
			return apply[a].Idx < apply[b].Idx
		}
		return apply[a].Vid < apply[b].Vid
	})
	asplit := splitIndex(apply, p)
	agrouped := groupByVid(apply, asplit)
	for w := 0; w < p; w++ {
		hi.apply[w] = agrouped[asplit[w]:asplit[w+1]]
	}
	return hi
}

// The per-domain histograms a hierarchical phase's time is filed under; a
// phase outside the domain structure (the Indexed method's trailing dot
// sweep) has none.
const (
	domMultiply int8 = iota // multiply, hub prefill folded in
	domIntra
	domCross
	domNone int8 = -1
)

// assembleHier builds the hierarchical phase list: optional domain-shared
// hub prefill (local barrier), multiply (local barrier), intra-domain
// combine (global barrier), cross-domain fold. With dot non-nil the fold is
// fused with the xᵀy partial sweep (naive/effective) or followed by a
// separate sweep (indexed, whose fold touches only conflicted elements).
// Prefill and multiply are compute work, combine and fold reduction, the
// separate sweep compute again; buckets names each phase's per-domain
// histogram.
func (k *Kernel) assembleHier(dot []float64) (phases []parallel.Phase, buckets []int8) {
	name := k.Method.String()
	add := func(ph parallel.Phase, bucket int8) {
		phases = append(phases, ph)
		buckets = append(buckets, bucket)
	}
	hub := k.hubPlan != nil
	if hub {
		add(parallel.ComputePhase(name+"/prefill", func(tid int) { k.prefillHotDomT(tid, k.curX) }).Local(), domMultiply)
	}
	var mult func(tid int)
	switch {
	case k.Method == Naive && hub:
		mult = func(tid int) { k.multiplyNaiveHubT(tid, k.curX) }
	case k.Method == Naive:
		mult = func(tid int) { k.multiplyNaiveT(tid, k.curX) }
	case hub:
		mult = func(tid int) { k.multiplyEffectiveHubT(tid, k.curX, k.curY) }
	default:
		mult = func(tid int) { k.multiplyEffectiveT(tid, k.curX, k.curY) }
	}
	add(parallel.ComputePhase(name+"/multiply", mult).Local(), domMultiply)
	var intra, cross func(tid int)
	switch k.Method {
	case Naive:
		intra = k.hierCombineNaiveT
	case EffectiveRanges:
		intra = k.hierCombineEffectiveT
	case Indexed:
		intra = k.hierIndexedCombineT
	}
	switch {
	case k.Method == Indexed:
		cross = k.hierIndexedApplyT
	case dot != nil:
		cross = func(tid int) { dot[tid*DotStride] = k.hierCrossDotT(tid, k.curX, k.curY) }
	default:
		cross = k.hierCrossT
	}
	add(parallel.ReductionPhase(name+"/reduce-intra", intra), domIntra)
	add(parallel.ReductionPhase(name+"/reduce-cross", cross), domCross)
	if k.Method == Indexed && dot != nil {
		add(parallel.ComputePhase(name+"/dot",
			func(tid int) { dot[tid*DotStride] = k.LV.dotChunkT(tid, k.curX, k.curY) }), domNone)
	}
	return phases, buckets
}

// observe feeds one sampled operation's per-domain critical-path times into
// the domain histograms, each phase's under the bucket it was assembled
// with.
func (h *hierState) observe(buckets []int8, s *parallel.Sample) {
	for dd := range h.domHist {
		var ns [3]int64
		for i, b := range buckets {
			if b != domNone {
				ns[b] += s.DomainNs(i, dd)
			}
		}
		for b, hist := range h.domHist[dd] {
			hist.Observe(float64(ns[b]) / 1e9)
		}
	}
}

// prefillHotDomT cooperatively fills the domain-shared hot window: the
// domain's workers copy disjoint chunks of the hub columns, the local
// barrier publishes the window, and the multiply bodies read it unchanged
// (hotX[tid] aliases the domain's window).
func (k *Kernel) prefillHotDomT(tid int, x []float64) {
	h := k.hier
	dd := h.wdom[tid]
	nw := h.domWhi[dd] - h.domWlo[dd]
	cols := k.hubPlan.Cols
	lo, hi := parallel.Chunk(len(cols), nw, tid-h.domWlo[dd])
	hot := k.hotX[tid]
	for s := lo; s < hi; s++ {
		hot[s] = x[cols[s]]
	}
}

// hierCombineNaiveT folds the domain's full-length locals over worker tid's
// slice of [low[d], de_d): window rows stage into buf[d], own-shard rows
// finish in y. Locals re-zero in the same pass; naive locals are only ever
// written inside [low[d], de_d), so this restores the all-zero invariant.
func (k *Kernel) hierCombineNaiveT(tid int) {
	h := k.hier
	dd := h.wdom[tid]
	wlo, whi := h.domWlo[dd], h.domWhi[dd]
	ds := h.domPart.Start[dd]
	lowd := h.low[dd]
	buf := h.buf[dd]
	vecs := k.LV.Vecs
	y := k.curY
	lo, hi := h.combLo[tid], h.combHi[tid]
	r := lo
	for ; r < hi && r < ds; r++ {
		sum := 0.0
		for t := wlo; t < whi; t++ {
			sum += vecs[t][r]
			vecs[t][r] = 0
		}
		buf[r-lowd] = sum
	}
	for ; r < hi; r++ {
		sum := 0.0
		for t := wlo; t < whi; t++ {
			sum += vecs[t][r]
			vecs[t][r] = 0
		}
		y[r] = sum
	}
}

// hierCombineEffectiveT is the effective-ranges intra-domain combine: window
// rows sum every domain local covering them into buf[d]; own-shard rows
// augment the direct writes already in y with the later domain workers'
// locals, using the same owner-cursor walk as the flat reduction.
func (k *Kernel) hierCombineEffectiveT(tid int) {
	h := k.hier
	dd := h.wdom[tid]
	wlo, whi := h.domWlo[dd], h.domWhi[dd]
	ds := h.domPart.Start[dd]
	lowd := h.low[dd]
	buf := h.buf[dd]
	vecs := k.LV.Vecs
	y := k.curY
	lo, hi := h.combLo[tid], h.combHi[tid]
	r := lo
	for ; r < hi && r < ds; r++ {
		sum := 0.0
		for t := wlo; t < whi; t++ {
			if int32(len(vecs[t])) > r {
				sum += vecs[t][r]
				vecs[t][r] = 0
			}
		}
		buf[r-lowd] = sum
	}
	if r >= hi {
		return
	}
	own := k.Part.Owner(r)
	for ; r < hi; r++ {
		for r >= k.Part.End[own] {
			own++
		}
		sum := y[r]
		for t := own + 1; t < whi; t++ {
			if int32(len(vecs[t])) > r {
				sum += vecs[t][r]
				vecs[t][r] = 0
			}
		}
		y[r] = sum
	}
}

// hierIndexedCombineT streams worker tid's intra entries into y and its
// cross entries into the domain staging window, per-Vid runs keeping every
// local a sequential read.
func (k *Kernel) hierIndexedCombineT(tid int) {
	h := k.hier
	y := k.curY
	vecs := k.LV.Vecs
	ents := h.idx.intra[tid]
	for e, n := 0, len(ents); e < n; {
		vid := ents[e].Vid
		local := vecs[vid]
		for ; e < n && ents[e].Vid == vid; e++ {
			idx := ents[e].Idx
			y[idx] += local[idx]
			local[idx] = 0
		}
	}
	dd := h.wdom[tid]
	buf := h.buf[dd]
	lowd := h.low[dd]
	ents = h.idx.cross[tid]
	for e, n := 0, len(ents); e < n; {
		vid := ents[e].Vid
		local := vecs[vid]
		for ; e < n && ents[e].Vid == vid; e++ {
			idx := ents[e].Idx
			buf[idx-lowd] += local[idx]
			local[idx] = 0
		}
	}
}

// hierIndexedApplyT folds worker tid's slice of the deduplicated apply list:
// per entry, one staged window element into y, re-zeroing the window (the
// indexed combine accumulates into it).
func (k *Kernel) hierIndexedApplyT(tid int) {
	h := k.hier
	y := k.curY
	ents := h.idx.apply[tid]
	for e, n := 0, len(ents); e < n; {
		dd := ents[e].Vid
		buf := h.buf[dd]
		lowd := h.low[dd]
		for ; e < n && ents[e].Vid == dd; e++ {
			idx := ents[e].Idx
			y[idx] += buf[idx-lowd]
			buf[idx-lowd] = 0
		}
	}
}

// hierCrossT folds every staging window into y over worker tid's uniform row
// chunk (naive/effective). Window d covers rows [low[d], ds_d); after the
// global barrier those y rows are final up to the staged cross-domain
// contributions added here.
func (k *Kernel) hierCrossT(tid int) {
	h := k.hier
	y := k.curY
	lo, hi := k.LV.redPart.Start[tid], k.LV.redPart.End[tid]
	for dd := 1; dd < h.d; dd++ {
		a, b := lo, hi
		lowd := h.low[dd]
		if a < lowd {
			a = lowd
		}
		if ds := h.domPart.Start[dd]; b > ds {
			b = ds
		}
		buf := h.buf[dd]
		for r := a; r < b; r++ {
			y[r] += buf[r-lowd]
			buf[r-lowd] = 0
		}
	}
}

// hierCrossDotT fuses the cross fold with the xᵀy partial over the same
// uniform chunk: after the fold the chunk's rows are final, so the partials
// combine (ascending tid) to the dot of the finished output.
func (k *Kernel) hierCrossDotT(tid int, x, y []float64) float64 {
	k.hierCrossT(tid)
	lo, hi := k.LV.redPart.Start[tid], k.LV.redPart.End[tid]
	dot := 0.0
	for r := lo; r < hi; r++ {
		dot += x[r] * y[r]
	}
	return dot
}

// redCrossBytes models the reduction bytes crossing a domain boundary under
// this kernel's configuration: the staged windows for a hierarchical kernel;
// for a flat reduction on a multi-domain pool, the share of the all-to-all
// local-vector stream whose reader and writer sit in different domains.
// Single-domain kernels cross nothing.
func (k *Kernel) redCrossBytes() int64 {
	if k.hier != nil {
		return k.hier.crossBytes
	}
	d := k.pool.Domains()
	if d <= 1 {
		return 0
	}
	n := int64(k.S.N)
	var cross int64
	switch k.Method {
	case Naive:
		// Reduction workers stream all p full-length locals; reads of rows
		// outside the writer's domain shard cross. Readers are uniform row
		// chunks, so per writer the remote share is N minus its shard rows.
		for dd := 0; dd < d; dd++ {
			wlo, whi := k.pool.DomainWorkers(dd)
			rows := int64(k.Part.End[whi-1] - k.Part.Start[wlo])
			cross += int64(whi-wlo) * (n - rows)
		}
	case EffectiveRanges:
		// Worker t's effective region [0, Start[t]) is read by owners of
		// those rows; rows below t's domain shard belong to other domains.
		for dd := 0; dd < d; dd++ {
			wlo, whi := k.pool.DomainWorkers(dd)
			cross += int64(whi-wlo) * int64(k.Part.Start[wlo])
		}
	case Indexed:
		// Entries whose destination row falls below the source worker's
		// domain shard are read across the boundary.
		if k.LV == nil {
			return 0
		}
		for _, e := range k.LV.index {
			wlo, _ := k.pool.DomainWorkers(k.pool.DomainOf(int(e.Vid)))
			if e.Idx < k.Part.Start[wlo] {
				cross++
			}
		}
	default:
		return 0
	}
	return 8 * cross
}
