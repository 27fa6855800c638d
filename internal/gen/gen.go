// Package gen generates the synthetic analog of the paper's 12-matrix
// University of Florida suite (Table I). The collection itself is not
// available offline, so each matrix is replaced by a deterministic, seeded
// generator that reproduces the properties the paper's results actually
// depend on:
//
//   - row count and nonzeros-per-row (working-set size, flop:byte ratio),
//   - structure class: the four "high-bandwidth corner cases"
//     (parabolic_fem, offshore, G3_circuit, thermal2) are grid/graph
//     stencils whose vertex labels have been randomly scrambled — huge
//     bandwidth under the natural ordering, fully recoverable by RCM,
//     exactly like the originals; the structural/FEM matrices are
//     block-banded with dense b×b blocks, giving CSX the horizontal/block
//     substructures it feeds on,
//   - symmetric positive definiteness (diagonal dominance), so CG applies.
//
// All matrices are emitted in symmetric lower-triangular COO form.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/matrix"
)

// Kind labels the structural class of a generated matrix.
type Kind int

const (
	// Stencil2D is a two-dimensional grid stencil with scrambled labels.
	Stencil2D Kind = iota
	// Stencil3D is a three-dimensional grid stencil with scrambled labels.
	Stencil3D
	// BlockedStructural is a block-banded FEM-style matrix with dense
	// BlockSize×BlockSize coupling blocks along a band.
	BlockedStructural
	// PowerLawGraph is a preferential-attachment graph Laplacian: a handful
	// of early vertices accumulate most of the edges (hubs), producing a
	// degree skew no Table I matrix has — see HubSuite.
	PowerLawGraph
	// ScatteredBand is a banded matrix whose rows have been cut into
	// contiguous segments and the segments shuffled: locally banded, globally
	// scattered. RCM recovers the band, but the point of the class is what
	// happens without RCM — the block conflict graph stays sparse (a quotient
	// of the segment chain) while the block order is scrambled, which is
	// exactly where first-fit coloring degenerates and the recursive
	// algebraic coloring does not. Not part of Table I — see ScatterSuite.
	ScatteredBand
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Stencil2D:
		return "stencil2d-scrambled"
	case Stencil3D:
		return "stencil3d-scrambled"
	case BlockedStructural:
		return "blocked-structural"
	case PowerLawGraph:
		return "power-law-graph"
	case ScatteredBand:
		return "scattered-band"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes one suite matrix at scale 1.0 (the paper's size).
type Spec struct {
	Name    string
	Problem string // problem domain, as in Table I
	Rows    int    // paper row count
	NNZ     int    // paper logical nonzeros (full operator)
	Kind    Kind

	// BlockedStructural parameters.
	BlockSize int     // b: dense coupling block edge
	BandFrac  float64 // band half-width as a fraction of the block count

	// Stencil parameters.
	ExtraPerRow int  // additional random grid-local couplings per vertex
	Scramble    bool // randomly permute vertex labels (true for the corner cases)

	// ScatteredBand parameters.
	SegmentLen int // rows per shuffled segment (default 400)
}

// AvgNNZRow reports the paper's logical nonzeros per row for the spec.
func (s Spec) AvgNNZRow() float64 { return float64(s.NNZ) / float64(s.Rows) }

// PaperSuite lists the 12 matrices of Table I. Order matches the paper
// (ascending nnz).
var PaperSuite = []Spec{
	{Name: "parabolic_fem", Problem: "C.F.D.", Rows: 525825, NNZ: 3674625, Kind: Stencil2D, Scramble: true},
	{Name: "offshore", Problem: "E/M", Rows: 259789, NNZ: 4242673, Kind: Stencil3D, ExtraPerRow: 5, Scramble: true},
	{Name: "consph", Problem: "F.E.M.", Rows: 83334, NNZ: 6010480, Kind: BlockedStructural, BlockSize: 3, BandFrac: 0.03},
	{Name: "bmw7st_1", Problem: "Structural", Rows: 141347, NNZ: 7339667, Kind: BlockedStructural, BlockSize: 3, BandFrac: 0.02},
	{Name: "G3_circuit", Problem: "Circuit", Rows: 1585478, NNZ: 7660826, Kind: Stencil2D, Scramble: true},
	{Name: "thermal2", Problem: "Thermal", Rows: 1228045, NNZ: 8580313, Kind: Stencil3D, Scramble: true},
	{Name: "bmwcra_1", Problem: "Structural", Rows: 148770, NNZ: 10644002, Kind: BlockedStructural, BlockSize: 6, BandFrac: 0.02},
	{Name: "hood", Problem: "Structural", Rows: 220542, NNZ: 10768436, Kind: BlockedStructural, BlockSize: 3, BandFrac: 0.02},
	{Name: "crankseg_2", Problem: "Structural", Rows: 63838, NNZ: 14148858, Kind: BlockedStructural, BlockSize: 6, BandFrac: 0.05},
	{Name: "nd12k", Problem: "2D/3D", Rows: 36000, NNZ: 14220946, Kind: BlockedStructural, BlockSize: 6, BandFrac: 0.08},
	{Name: "inline_1", Problem: "Structural", Rows: 503712, NNZ: 36816342, Kind: BlockedStructural, BlockSize: 3, BandFrac: 0.015},
	{Name: "ldoor", Problem: "Structural", Rows: 952203, NNZ: 46522475, Kind: BlockedStructural, BlockSize: 3, BandFrac: 0.015},
}

// HubSuite lists synthetic power-law matrices beyond Table I. Their hub
// vertices (the oldest in the attachment process) are touched by nearly
// every row, so every thread's transposed writes reach the same few columns:
// a stress of the conflict index and of the colored schedule, whose conflict
// graph goes near-complete. The Table I matrices have no such skew.
var HubSuite = []Spec{
	{Name: "powerlaw-s", Problem: "Graph", Rows: 100000, NNZ: 900000, Kind: PowerLawGraph},
	{Name: "powerlaw-m", Problem: "Graph", Rows: 400000, NNZ: 5200000, Kind: PowerLawGraph},
}

// ScatterSuite lists synthetic scattered matrices beyond Table I: banded
// structure hidden behind a segment shuffle. They are the coloring stress
// class — greedy first-fit depends on block order and degenerates here,
// while the recursive algebraic coloring recovers the band's level structure
// from the conflict graph alone.
var ScatterSuite = []Spec{
	{Name: "scattered-band", Problem: "Synthetic", Rows: 50000, NNZ: 450000, Kind: ScatteredBand, SegmentLen: 400},
	{Name: "scattered-band-l", Problem: "Synthetic", Rows: 200000, NNZ: 1800000, Kind: ScatteredBand, SegmentLen: 1600},
}

// SpecByName looks up a PaperSuite, HubSuite, or ScatterSuite entry.
func SpecByName(name string) (Spec, error) {
	for _, suite := range [][]Spec{PaperSuite, HubSuite, ScatterSuite} {
		for _, s := range suite {
			if s.Name == name {
				return s, nil
			}
		}
	}
	return Spec{}, fmt.Errorf("gen: unknown suite matrix %q", name)
}

// Generate builds the matrix for spec at the given scale (1.0 = paper size;
// rows scale linearly, nonzeros-per-row is preserved). The generator is
// deterministic: the same (spec, scale) always yields the same matrix.
func Generate(spec Spec, scale float64) (*matrix.COO, error) {
	if scale <= 0 || scale > 1.5 {
		return nil, fmt.Errorf("gen: scale %g out of (0, 1.5]", scale)
	}
	rows := int(math.Round(float64(spec.Rows) * scale))
	if rows < 64 {
		rows = 64
	}
	rng := rand.New(rand.NewSource(seedFor(spec.Name)))
	var m *matrix.COO
	switch spec.Kind {
	case Stencil2D:
		m = genStencil(rng, rows, 2, spec.AvgNNZRow(), spec.ExtraPerRow, spec.Scramble)
	case Stencil3D:
		m = genStencil(rng, rows, 3, spec.AvgNNZRow(), spec.ExtraPerRow, spec.Scramble)
	case BlockedStructural:
		m = genBlocked(rng, rows, spec.BlockSize, spec.AvgNNZRow(), spec.BandFrac)
	case PowerLawGraph:
		m = genPowerLaw(rng, rows, spec.AvgNNZRow())
	case ScatteredBand:
		m = genScatteredBand(rng, rows, spec.AvgNNZRow(), spec.SegmentLen)
	default:
		return nil, fmt.Errorf("gen: unknown kind %v", spec.Kind)
	}
	makeSPD(m, rng)
	m.Normalize()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("gen: %s: %w", spec.Name, err)
	}
	return m, nil
}

// seedFor derives a stable per-matrix seed (FNV-1a of the name).
func seedFor(name string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}

// genStencil builds a dim-dimensional grid stencil over n vertices with
// enough neighbor offsets to approximate targetNNZRow logical nonzeros per
// row, plus extraPerRow random couplings within a local grid window, then
// optionally scrambles the vertex labels with a random permutation.
func genStencil(rng *rand.Rand, n, dim int, targetNNZRow float64, extraPerRow int, scramble bool) *matrix.COO {
	side := int(math.Ceil(math.Pow(float64(n), 1/float64(dim))))
	if side < 2 {
		side = 2
	}

	// Offsets: grow a neighborhood (positive half only; symmetry supplies
	// the rest) until the logical nnz/row target is met. keep chooses the
	// fraction of base edges retained, for fractional targets (G3_circuit).
	offsets, keep := stencilOffsets(dim, targetNNZRow, extraPerRow)

	perm := identity(n)
	if scramble {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}

	est := int(float64(n)*(targetNNZRow-1)/2) + n
	m := matrix.NewCOO(n, n, est)
	m.Symmetric = true

	coord := make([]int, dim)
	for v := 0; v < n; v++ {
		vertexCoords(v, side, coord)
		for _, off := range offsets {
			w, ok := offsetNeighbor(coord, off, side, dim)
			if !ok || w >= n {
				continue
			}
			if keep < 1 && rng.Float64() >= keep {
				continue
			}
			addSymEdge(m, int(perm[v]), int(perm[w]), rng)
		}
		for e := 0; e < extraPerRow; e++ {
			// Random coupling within a small grid window: stays local in
			// grid space, so RCM can still recover a banded form.
			w, ok := randomLocalNeighbor(rng, coord, side, dim, 3)
			if ok && w < n && w != v {
				addSymEdge(m, int(perm[v]), int(perm[w]), rng)
			}
		}
	}
	return m
}

// stencilOffsets returns positive-direction neighbor offsets for a dim-grid
// sized so that 1 (diag) + 2·len(offsets) + 2·extra ≈ target nnz/row, plus
// the edge-retention probability for fractional targets.
func stencilOffsets(dim int, target float64, extra int) (offs [][]int, keep float64) {
	// Candidate positive offsets ordered by distance: axis units first, then
	// plane/space diagonals.
	var candidates [][]int
	if dim == 2 {
		candidates = [][]int{{1, 0}, {0, 1}, {1, 1}, {1, -1}, {2, 0}, {0, 2}, {2, 1}, {1, 2}}
	} else {
		candidates = [][]int{
			{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
			{1, 1, 0}, {1, 0, 1}, {0, 1, 1}, {1, -1, 0}, {1, 0, -1}, {0, 1, -1},
			{1, 1, 1}, {1, 1, -1}, {1, -1, 1}, {1, -1, -1},
		}
	}
	// Off-diagonal half-count needed (already excluding extras).
	need := (target - 1) / 2.0 // - float64(extra), extras are best-effort
	need -= float64(extra)
	if need < 1 {
		need = 1
	}
	k := int(need)
	if k > len(candidates) {
		k = len(candidates)
	}
	keep = 1.0
	if frac := need - float64(k); k < len(candidates) && frac > 0.05 {
		// Take one more offset at reduced retention to land between counts.
		k++
		keep = need / float64(k)
	} else if float64(k) > need {
		keep = need / float64(k)
	}
	return candidates[:k], keep
}

func identity(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// vertexCoords decodes vertex v into grid coordinates (row-major).
func vertexCoords(v, side int, coord []int) {
	for d := len(coord) - 1; d >= 0; d-- {
		coord[d] = v % side
		v /= side
	}
}

// offsetNeighbor encodes coord+off back to a vertex id, rejecting
// out-of-grid moves.
func offsetNeighbor(coord, off []int, side, dim int) (int, bool) {
	w := 0
	for d := 0; d < dim; d++ {
		c := coord[d] + off[d]
		if c < 0 || c >= side {
			return 0, false
		}
		w = w*side + c
	}
	return w, true
}

// randomLocalNeighbor picks a uniformly random vertex within ±window of
// coord in every dimension.
func randomLocalNeighbor(rng *rand.Rand, coord []int, side, dim, window int) (int, bool) {
	w := 0
	same := true
	for d := 0; d < dim; d++ {
		c := coord[d] + rng.Intn(2*window+1) - window
		if c < 0 || c >= side {
			return 0, false
		}
		if c != coord[d] {
			same = false
		}
		w = w*side + c
	}
	if same {
		return 0, false
	}
	return w, true
}

// addSymEdge stores an undirected edge as a lower-triangular entry with a
// random value in [-1, -0.1] ∪ [0.1, 1] (bounded away from zero so diagonal
// dominance margins stay meaningful).
func addSymEdge(m *matrix.COO, a, b int, rng *rand.Rand) {
	if a == b {
		return
	}
	if a < b {
		a, b = b, a
	}
	v := 0.1 + 0.9*rng.Float64()
	if rng.Intn(2) == 0 {
		v = -v
	}
	m.Add(a, b, v)
}

// genBlocked builds a block-banded structural matrix: rows are grouped into
// dense b×b node blocks; each block couples to its predecessor and to
// kb-1 random earlier blocks inside a band window, every coupling being a
// fully dense b×b value block. The dense blocks are what give CSX its
// horizontal/block substructures.
func genBlocked(rng *rand.Rand, n, b int, targetNNZRow float64, bandFrac float64) *matrix.COO {
	if b < 1 {
		b = 1
	}
	nb := (n + b - 1) / b
	// Lower off-diagonal stored per row ≈ kb·b (couplings) + (b-1)/2
	// (intra-block lower part). Solve for kb from the logical target.
	kb := int(math.Round(((targetNNZRow-1)/2 - float64(b-1)/2) / float64(b)))
	if kb < 1 {
		kb = 1
	}
	window := int(bandFrac * float64(nb))
	if window < kb+2 {
		window = kb + 2
	}

	est := n * (kb*b + b) // rough
	m := matrix.NewCOO(n, n, est)
	m.Symmetric = true

	blockRows := func(i int) (lo, hi int) {
		lo = i * b
		hi = lo + b
		if hi > n {
			hi = n
		}
		return lo, hi
	}

	seen := make(map[int]bool, kb)
	for i := 1; i < nb; i++ {
		// Choose kb distinct earlier blocks: always the immediate
		// predecessor (chain connectivity, keeps the graph connected), the
		// rest random within the window.
		for k := range seen {
			delete(seen, k)
		}
		seen[i-1] = true
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		// Only i-lo earlier blocks exist in [lo, i-1]; cap the draw count.
		for len(seen) < kb && len(seen) < i-lo {
			seen[lo+rng.Intn(i-lo)] = true
		}
		rlo, rhi := blockRows(i)
		// Iterate neighbors in sorted order: map iteration order would make
		// the generated values (not just their order) run-dependent.
		nbrs := make([]int, 0, len(seen))
		for j := range seen {
			nbrs = append(nbrs, j)
		}
		sort.Ints(nbrs)
		for _, j := range nbrs {
			clo, chi := blockRows(j)
			for r := rlo; r < rhi; r++ {
				for c := clo; c < chi; c++ {
					addSymEdge(m, r, c, rng)
				}
			}
		}
		// Dense intra-block coupling (strict lower part).
		for r := rlo; r < rhi; r++ {
			for c := rlo; c < r; c++ {
				addSymEdge(m, r, c, rng)
			}
		}
	}
	// Block 0 intra-coupling.
	rlo, rhi := blockRows(0)
	for r := rlo; r < rhi; r++ {
		for c := rlo; c < r; c++ {
			addSymEdge(m, r, c, rng)
		}
	}
	return m
}

// genPowerLaw builds a preferential-attachment (Barabási–Albert) graph:
// each new vertex attaches to mAtt earlier vertices chosen proportionally
// to their current degree, so early vertices become hubs whose degree grows
// with n. In lower-triangular storage a hub h collects entries (v, h) for
// every later attacher v — a dense stored column (matrix.Stats.MaxColNNZ).
func genPowerLaw(rng *rand.Rand, n int, targetNNZRow float64) *matrix.COO {
	// Logical nnz/row ≈ 1 (diag) + 2·mAtt (each edge counts on both sides).
	mAtt := int(math.Round((targetNNZRow - 1) / 2))
	if mAtt < 1 {
		mAtt = 1
	}
	if mAtt >= n {
		mAtt = n - 1
	}
	m := matrix.NewCOO(n, n, (mAtt+1)*n)
	m.Symmetric = true
	// ends holds every edge endpoint once; uniform sampling from it is
	// degree-proportional sampling of vertices.
	ends := make([]int32, 0, 2*mAtt*n)
	// Seed: a star over the first mAtt+1 vertices so every seed vertex is
	// attachable from the start.
	for v := 1; v <= mAtt && v < n; v++ {
		addSymEdge(m, v, 0, rng)
		ends = append(ends, 0, int32(v))
	}
	seen := make(map[int]bool, mAtt)
	for v := mAtt + 1; v < n; v++ {
		for k := range seen {
			delete(seen, k)
		}
		for len(seen) < mAtt {
			w := int(ends[rng.Intn(len(ends))])
			if w == v || seen[w] {
				// Redraw uniformly so a small, saturated neighborhood cannot
				// stall the loop.
				w = rng.Intn(v)
				if w == v || seen[w] {
					continue
				}
			}
			seen[w] = true
			addSymEdge(m, v, w, rng)
			ends = append(ends, int32(v), int32(w))
		}
	}
	return m
}

// genScatteredBand builds a banded matrix (half-bandwidth derived from the
// logical nnz/row target) in its natural order, cuts the rows into
// contiguous segments of segLen rows, and shuffles the segment order. The
// operator is the permuted band: each row still couples only to its
// neighbors in the original chain, so the structure is locally dense and
// globally scattered — bandwidth under the shuffled labels is huge, yet RCM
// (or, for the colored schedule, the conflict-graph level sets) recovers the
// chain exactly.
func genScatteredBand(rng *rand.Rand, n int, targetNNZRow float64, segLen int) *matrix.COO {
	bw := int(math.Round((targetNNZRow - 1) / 2))
	if bw < 1 {
		bw = 1
	}
	if segLen <= 0 {
		segLen = 400
	}
	nseg := (n + segLen - 1) / segLen
	order := rng.Perm(nseg)
	// newPos[origRow] = shuffled row index.
	newPos := make([]int, n)
	pos := 0
	for _, s := range order {
		lo := s * segLen
		hi := lo + segLen
		if hi > n {
			hi = n
		}
		for r := lo; r < hi; r++ {
			newPos[r] = pos
			pos++
		}
	}
	m := matrix.NewCOO(n, n, n*(bw+1))
	m.Symmetric = true
	for i := 0; i < n; i++ {
		for d := 1; d <= bw && i-d >= 0; d++ {
			addSymEdge(m, newPos[i], newPos[i-d], rng)
		}
	}
	return m
}

// makeSPD sets each diagonal entry to the full-operator absolute row sum
// plus a positive margin, making the matrix strictly diagonally dominant
// with positive diagonal — hence symmetric positive definite.
func makeSPD(m *matrix.COO, rng *rand.Rand) {
	n := m.Rows
	rowAbs := make([]float64, n)
	for k := range m.Val {
		r, c := m.RowIdx[k], m.ColIdx[k]
		if r == c {
			continue // diagonal rewritten below
		}
		a := math.Abs(m.Val[k])
		rowAbs[r] += a
		rowAbs[c] += a
	}
	// Drop any explicit diagonal entries, then add the dominant diagonal.
	w := 0
	for k := range m.Val {
		if m.RowIdx[k] != m.ColIdx[k] {
			m.RowIdx[w], m.ColIdx[w], m.Val[w] = m.RowIdx[k], m.ColIdx[k], m.Val[k]
			w++
		}
	}
	m.RowIdx, m.ColIdx, m.Val = m.RowIdx[:w], m.ColIdx[:w], m.Val[:w]
	for r := 0; r < n; r++ {
		m.Add(r, r, rowAbs[r]+0.5+0.5*rng.Float64())
	}
}
