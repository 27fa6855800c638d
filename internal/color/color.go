// Package color builds conflict-free colored schedules for the symmetric
// SpM×V, the prevention-based alternative to the paper's reduction methods
// (in the spirit of RACE — Alappat, Hager et al.: recursive algebraic
// coloring for symmetric SpMV).
//
// The symmetric kernel makes two writes per stored lower-triangle element
// (r, c): the row contribution to y[r] and the transpose contribution to
// y[c]. When rows are split into blocks, block i's write set is therefore
// its own row range plus every column below the range that its rows
// reference. Two blocks conflict when those write sets intersect; blocks of
// the same color never conflict, so all blocks of one color may execute
// concurrently with every thread writing y directly — no local vectors, no
// reduction phase. The price is one barrier per color instead of one
// multiply→reduce barrier pair, which is why low-bandwidth (e.g.
// RCM-reordered) matrices, whose conflict graphs are nearly interval graphs,
// are the natural fit: they collapse to very few colors.
//
// Two coloring algorithms are provided. The greedy first-fit walk in
// ascending block order is ideal on banded structure but degenerates on
// scattered matrices, where a late block's earlier neighbors can occupy
// every low color even though the conflict graph itself is nearly bipartite.
// The recursive algebraic coloring removes that order dependence: it builds
// BFS level sets over the conflict graph, exploits that edges never span
// more than one level (so all even levels are mutually independent, as are
// all odd levels), and recursively applies itself to each level's induced
// subgraph, sharing one palette across even levels and a second across odd
// levels. The default Auto mode colors symbolically with both and keeps
// whichever uses fewer colors, so no matrix class regresses.
package color

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/partition"
)

// Algorithm selects the coloring strategy for Build.
type Algorithm int

const (
	// Auto colors with both algorithms and keeps the one with fewer colors
	// (ties go to Recursive, whose level structure balances better).
	Auto Algorithm = iota
	// Greedy is the first-fit walk in ascending block order (the PR 3
	// baseline): best on banded/RCM-reordered structure.
	Greedy
	// Recursive is the RACE-style level-set coloring: order-independent,
	// robust on scattered matrices without requiring RCM first.
	Recursive
)

func (a Algorithm) String() string {
	switch a {
	case Greedy:
		return "greedy"
	case Recursive:
		return "recursive"
	default:
		return "auto"
	}
}

// Options configures schedule construction. The zero value is ready to use.
type Options struct {
	// BlocksPerThread is the number of row blocks carved per thread. More
	// blocks give the coloring finer granularity (fewer forced conflicts per
	// color) at the cost of shorter per-phase work items. Default 8.
	BlocksPerThread int
	// Algorithm picks the coloring strategy; the zero value is Auto.
	Algorithm Algorithm
}

func (o Options) withDefaults() Options {
	if o.BlocksPerThread <= 0 {
		o.BlocksPerThread = 8
	}
	return o
}

// Schedule is one conflict-free execution plan: a row-block partition, a
// proper coloring of its conflict graph, and a per-color assignment of
// blocks to threads. Blocks assigned to the same color have provably
// disjoint write sets, so a phase-per-color execution is race-free by
// construction regardless of which thread runs which block.
type Schedule struct {
	P         int                     // thread count the schedule targets
	NumBlocks int                     // row blocks (≤ P·BlocksPerThread)
	Part      *partition.RowPartition // block b owns rows [Start[b], End[b])
	Color     []int32                 // Color[b] ∈ [0, NumColors)
	NumColors int
	// Algo records which algorithm produced Color (never Auto: Auto resolves
	// to the winner).
	Algo Algorithm
	// Assign[c][tid] lists the blocks thread tid executes during color phase
	// c, balanced by stored-nonzero count within each color.
	Assign [][][]int32
}

// Build constructs a colored schedule for the strict-lower-triangle CSR
// structure (rowPtr, colIdx) of an n×n symmetric matrix at p threads.
// Construction is purely symbolic: O(B²) block-pair intersection tests over
// sorted touched-column lists, with B row blocks, followed by the coloring
// walk (greedy) and/or the level-set recursion (recursive) on the B-vertex
// conflict graph.
func Build(n int, rowPtr, colIdx []int32, p int, opt Options) *Schedule {
	if p <= 0 {
		panic(fmt.Sprintf("color: Build with p=%d", p))
	}
	opt = opt.withDefaults()
	if p == 1 {
		// A single thread serializes everything; one block, one color.
		return &Schedule{
			P:         1,
			NumBlocks: 1,
			Part:      &partition.RowPartition{Start: []int32{0}, End: []int32{int32(n)}},
			Color:     []int32{0},
			NumColors: 1,
			Algo:      opt.Algorithm,
			Assign:    [][][]int32{{{0}}},
		}
	}

	nb := p * opt.BlocksPerThread
	if nb > n {
		nb = n
	}
	if nb < p {
		nb = p
	}
	part := partition.ByNNZ(rowPtr, nb)
	adj := conflictGraph(part, rowPtr, colIdx, nb)

	var colors []int32
	var numColors int
	algo := opt.Algorithm
	switch opt.Algorithm {
	case Greedy:
		colors, numColors = greedyColor(adj)
	case Recursive:
		colors, numColors = recursiveColor(adj)
	default: // Auto: symbolic cost is tiny next to the numeric kernel, so
		// run both and keep the shorter barrier chain.
		gc, gn := greedyColor(adj)
		rc, rn := recursiveColor(adj)
		if rn <= gn {
			colors, numColors, algo = rc, rn, Recursive
		} else {
			colors, numColors, algo = gc, gn, Greedy
		}
	}

	sc := &Schedule{
		P:         p,
		NumBlocks: nb,
		Part:      part,
		Color:     colors,
		NumColors: numColors,
		Algo:      algo,
	}
	sc.assign(rowPtr)
	return sc
}

// conflictGraph builds the block conflict graph. touched[b] is the set of
// distinct columns below block b's start that its rows reference — exactly
// the transpose-contribution writes leaving the block's own row range. For
// i < j the write sets can only meet in two ways: block j's transpose writes
// land inside block i's row range, or both blocks transpose-write a common
// column. (Row ranges are disjoint, and touched[i] lies entirely below
// Start[i] ≤ Start[j], so it cannot reach block j's rows.)
func conflictGraph(part *partition.RowPartition, rowPtr, colIdx []int32, nb int) [][]int32 {
	touched := make([][]int32, nb)
	for b := 0; b < nb; b++ {
		lo := part.Start[b]
		var cols []int32
		for r := lo; r < part.End[b]; r++ {
			for j := rowPtr[r]; j < rowPtr[r+1]; j++ {
				if c := colIdx[j]; c < lo {
					cols = append(cols, c)
				}
			}
		}
		touched[b] = sortDedup(cols)
	}

	adj := make([][]int32, nb)
	for i := 0; i < nb; i++ {
		for j := i + 1; j < nb; j++ {
			if rangeHits(touched[j], part.Start[i], part.End[i]) ||
				sortedIntersect(touched[i], touched[j]) {
				adj[i] = append(adj[i], int32(j))
				adj[j] = append(adj[j], int32(i))
			}
		}
	}
	return adj
}

// greedyColor is the first-fit walk in ascending block order — the
// bandwidth-aware order: blocks follow the row order, so on a banded
// (RCM-reordered) matrix every conflict reaches only a few preceding blocks
// and the first-fit walk reuses colors immediately, collapsing the count
// toward the local clique size instead of growing with p.
func greedyColor(adj [][]int32) ([]int32, int) {
	nb := len(adj)
	colors := make([]int32, nb)
	numColors := 0
	used := make([]bool, 0, 8)
	for b := 0; b < nb; b++ {
		used = used[:0]
		for len(used) < numColors+1 {
			used = append(used, false)
		}
		for _, nbk := range adj[b] {
			if int(nbk) < b {
				used[colors[nbk]] = true
			}
		}
		c := int32(0)
		for used[c] {
			c++
		}
		colors[b] = c
		if int(c)+1 > numColors {
			numColors = int(c) + 1
		}
	}
	return colors, numColors
}

// recursiveColor is the RACE-style recursive algebraic coloring of the block
// conflict graph.
//
// Greedy first-fit is only as good as its vertex order: on a scattered
// matrix the ascending block order is essentially random, and a late block
// whose earlier neighbors happen to occupy every low color is forced into a
// new one even when the graph itself is nearly bipartite. The recursive
// algorithm replaces the order, not the coloring rule. Per connected
// component, a BFS from a minimum-degree vertex assigns every block a level
// (its BFS distance); edges never span more than one level, so walking the
// levels in order visits the graph the way a bandwidth-reducing reordering
// would lay it out — the level structure recovers algebraically what RCM
// would recover from the matrix, which is why no RCM pass is needed first.
// A level whose induced subgraph still contains edges is ordered by
// recursing on it (its own sub-level structure bisects it further); the
// recursion terminates because level 0 is always a lone start vertex, so
// every level is a strict subset of its component. One first-fit sweep over
// the recursively built order then colors the graph: on a path-quotient
// conflict graph (a scattered banded matrix) it restores the optimal 2–3
// colors regardless of how the blocks were scrambled, and on
// crown/ladder-shaped graphs that force natural-order first-fit into Θ(B)
// colors it stays at 2.
func recursiveColor(adj [][]int32) ([]int32, int) {
	nb := len(adj)
	colors := make([]int32, nb)
	if nb == 0 {
		return colors, 0
	}
	verts := make([]int32, nb)
	for i := range verts {
		verts[i] = int32(i)
	}
	order := levelOrder(verts, adj)
	colors, num := firstFitOrdered(order, adj)
	return refineColors(colors, num, adj, 3)
}

// refineColors runs bounded color-compaction rounds: re-color with first-fit
// processing the existing color classes from highest to lowest. Each class is
// an independent set, so a round can never need more classes than it was
// given — the count is non-increasing — while vertices of high classes get
// first pick of low colors, merging classes the constructive pass left
// fragmented. It converges quickly; three rounds capture nearly all of the
// gain.
func refineColors(colors []int32, num int, adj [][]int32, rounds int) ([]int32, int) {
	for it := 0; it < rounds; it++ {
		order := make([]int32, 0, len(adj))
		for c := num - 1; c >= 0; c-- {
			for v := range adj {
				if colors[v] == int32(c) {
					order = append(order, int32(v))
				}
			}
		}
		next, n := firstFitOrdered(order, adj)
		if n >= num {
			colors, num = next, n
			break
		}
		colors, num = next, n
	}
	return colors, num
}

// levelOrder returns the vertices of the subgraph induced by verts in
// recursive level-set order. adj must already be restricted to verts (the
// top-level call passes the full graph; recursive calls pass induced
// adjacency).
func levelOrder(verts []int32, adj [][]int32) []int32 {
	n := len(verts)
	if n <= 1 {
		return verts
	}

	// Level assignment: BFS per component from a minimum-degree start (the
	// classic heuristic for long, thin level structures, which minimize
	// same-level edges).
	const unseen = int32(-1)
	level := make(map[int32]int32, n)
	inSet := make(map[int32]bool, n)
	for _, v := range verts {
		inSet[v] = true
		level[v] = unseen
	}
	deg := func(v int32) int {
		d := 0
		for _, w := range adj[v] {
			if inSet[w] {
				d++
			}
		}
		return d
	}
	var queue []int32
	maxLevel := int32(0)
	for {
		// Next unvisited vertex of minimum degree seeds the next component.
		start := int32(-1)
		best := -1
		for _, v := range verts {
			if level[v] != unseen {
				continue
			}
			if d := deg(v); start < 0 || d < best {
				start, best = v, d
			}
		}
		if start < 0 {
			break
		}
		level[start] = 0
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if inSet[w] && level[w] == unseen {
					level[w] = level[v] + 1
					if level[w] > maxLevel {
						maxLevel = level[w]
					}
					queue = append(queue, w)
				}
			}
		}
	}

	byLevel := make([][]int32, maxLevel+1)
	for _, v := range verts {
		byLevel[level[v]] = append(byLevel[level[v]], v)
	}

	order := make([]int32, 0, n)
	for _, lv := range byLevel {
		if levelHasEdges(lv, adj) {
			// Strictly smaller than verts: level 0 is a lone start vertex in
			// every component, so no level contains a whole component.
			lv = levelOrder(lv, inducedAdj(lv, adj))
		}
		order = append(order, lv...)
	}
	return order
}

// firstFitOrdered runs the first-fit coloring rule along the given vertex
// order over the full graph.
func firstFitOrdered(order []int32, adj [][]int32) ([]int32, int) {
	colors := make([]int32, len(adj))
	for i := range colors {
		colors[i] = -1
	}
	numColors := 0
	var used []bool
	for _, v := range order {
		used = used[:0]
		for len(used) < numColors+1 {
			used = append(used, false)
		}
		for _, w := range adj[v] {
			if colors[w] >= 0 {
				used[colors[w]] = true
			}
		}
		c := int32(0)
		for used[c] {
			c++
		}
		colors[v] = c
		if int(c)+1 > numColors {
			numColors = int(c) + 1
		}
	}
	return colors, numColors
}

// inducedAdj restricts adj to the subgraph induced by verts.
func inducedAdj(verts []int32, adj [][]int32) [][]int32 {
	inSet := make(map[int32]bool, len(verts))
	for _, v := range verts {
		inSet[v] = true
	}
	induced := make([][]int32, len(adj))
	for _, v := range verts {
		for _, w := range adj[v] {
			if inSet[w] {
				induced[v] = append(induced[v], w)
			}
		}
	}
	return induced
}

// levelHasEdges reports whether the subgraph induced by lv contains any edge.
func levelHasEdges(lv []int32, adj [][]int32) bool {
	if len(lv) < 2 {
		return false
	}
	inSet := make(map[int32]bool, len(lv))
	for _, v := range lv {
		inSet[v] = true
	}
	for _, v := range lv {
		for _, w := range adj[v] {
			if inSet[w] {
				return true
			}
		}
	}
	return false
}

// assign distributes each color's blocks across the threads with a greedy
// longest-processing-time heuristic on stored-nonzero weight, so the barrier
// closing each color phase waits on balanced work.
func (sc *Schedule) assign(rowPtr []int32) {
	type wb struct {
		b int32
		w int64
	}
	byColor := make([][]wb, sc.NumColors)
	for b := 0; b < sc.NumBlocks; b++ {
		w := sc.Part.NNZOf(rowPtr, b) + int64(sc.Part.End[b]-sc.Part.Start[b])
		c := sc.Color[b]
		byColor[c] = append(byColor[c], wb{int32(b), w})
	}
	sc.Assign = make([][][]int32, sc.NumColors)
	load := make([]int64, sc.P)
	for c := range byColor {
		sc.Assign[c] = make([][]int32, sc.P)
		blocks := byColor[c]
		slices.SortStableFunc(blocks, func(a, b wb) int { return cmp.Compare(b.w, a.w) })
		for i := range load {
			load[i] = 0
		}
		for _, e := range blocks {
			t := 0
			for i := 1; i < sc.P; i++ {
				if load[i] < load[t] {
					t = i
				}
			}
			sc.Assign[c][t] = append(sc.Assign[c][t], e.b)
			load[t] += e.w
		}
	}
}

// Colors is a convenience for callers that only need the phase count (the
// performance model prices a colored plan by its barrier chain).
func Colors(n int, rowPtr, colIdx []int32, p int, opt Options) int {
	return Build(n, rowPtr, colIdx, p, opt).NumColors
}

// sortDedup sorts ascending and removes duplicates in place.
func sortDedup(v []int32) []int32 {
	slices.Sort(v)
	return slices.Compact(v)
}

// rangeHits reports whether the ascending slice cols contains a value in
// [lo, hi).
func rangeHits(cols []int32, lo, hi int32) bool {
	i, _ := slices.BinarySearch(cols, lo)
	return i < len(cols) && cols[i] < hi
}

// sortedIntersect reports whether two ascending slices share an element.
func sortedIntersect(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}
