// Package reorder implements bandwidth-reducing row/column permutations for
// symmetric sparse matrices — Reverse Cuthill–McKee with a pseudo-peripheral
// starting vertex — used by the paper's §V-D evaluation of reduced-bandwidth
// matrices.
package reorder

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/matrix"
)

// adjacency is the symmetric adjacency structure of a matrix (self-loops
// removed, both triangles present).
type adjacency struct {
	ptr []int32
	adj []int32
}

// buildAdjacency assembles the undirected graph of a square COO matrix. For
// symmetric lower-stored matrices each off-diagonal entry yields both (r,c)
// and (c,r) arcs; for general matrices the pattern is symmetrized (an entry
// in either triangle connects both vertices), the standard practice before
// running RCM on a structurally unsymmetric matrix.
func buildAdjacency(m *matrix.COO) *adjacency {
	n := m.Rows
	deg := make([]int32, n)
	count := 0
	for k := range m.Val {
		r, c := m.RowIdx[k], m.ColIdx[k]
		if r == c {
			continue
		}
		deg[r]++
		deg[c]++
		count += 2
	}
	a := &adjacency{ptr: make([]int32, n+1), adj: make([]int32, count)}
	for i := 0; i < n; i++ {
		a.ptr[i+1] = a.ptr[i] + deg[i]
	}
	next := make([]int32, n)
	copy(next, a.ptr[:n])
	for k := range m.Val {
		r, c := m.RowIdx[k], m.ColIdx[k]
		if r == c {
			continue
		}
		a.adj[next[r]] = c
		next[r]++
		a.adj[next[c]] = r
		next[c]++
	}
	// Duplicated arcs (from a non-normalized or structurally symmetric
	// general matrix) are tolerated: a search marks a vertex once, and the
	// (degree, index) order keeps the output deterministic.
	return a
}

// search runs the breadth-first searches of RCM. Every search visits
// neighbours in Cuthill–McKee order, so the search from the root George–Liu
// settles on is the component's CM order. A search clears only what the one
// before it in the same component marked, and the marks of a finished
// component stay set, so a search costs the size of its component.
type search struct {
	a    *adjacency
	seen []uint64 // bit v: a search has reached v since its component's marks were last cleared
	keys []uint64 // one vertex's unvisited neighbours as degree<<32 | index
}

// visit searches from root, appending the visit order to order[:0]. It returns
// the order, the index in it where the last level starts, and the
// eccentricity of root (the number of that level).
func (s *search) visit(root int32, order []int32) ([]int32, int, int) {
	seen, ptr, adj, keys := s.seen, s.a.ptr, s.a.adj, s.keys
	seen[root>>6] |= 1 << (root & 63)
	order = append(order[:0], root)
	last, ecc := 0, -1
	for lo, hi := 0, 1; lo < hi; lo, hi = hi, len(order) {
		last, ecc = lo, ecc+1
		for _, v := range order[lo:hi] {
			keys = keys[:0]
			for _, w := range adj[ptr[v]:ptr[v+1]] {
				if bit := uint64(1) << (w & 63); seen[w>>6]&bit == 0 {
					seen[w>>6] |= bit
					keys = append(keys, uint64(ptr[w+1]-ptr[w])<<32|uint64(w))
				}
			}
			slices.Sort(keys) // insertion sort below 13 keys, which is nearly always
			for _, k := range keys {
				order = append(order, int32(uint32(k)))
			}
		}
	}
	s.keys = keys
	return order, last, ecc
}

// RCM computes the Reverse Cuthill–McKee permutation of a square matrix.
// The result perm maps old index → new index (row i of A becomes row perm[i]
// of P·A·Pᵀ). Disconnected components are processed in ascending order of
// their lowest-numbered vertex, each from a pseudo-peripheral root found by
// the George–Liu iteration: search from the lowest vertex, hop to the
// minimum-(degree, index) vertex of the last level while that lengthens the
// eccentricity. Neighbours are placed in ascending (degree, index) order.
// The cost is linear in n plus the stored entries, whatever the number of
// components.
func RCM(m *matrix.COO) ([]int32, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("reorder: RCM requires a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	s := &search{a: buildAdjacency(m), seen: make([]uint64, (n+63)/64)}
	rootOrder, candOrder := make([]int32, 0, n), make([]int32, 0, n)
	perm := make([]int32, n)
	next := int32(n) // the new index the next visited vertex takes, plus one

	for comp := int32(0); int(comp) < n; comp++ {
		if s.seen[comp>>6]&(1<<(comp&63)) != 0 {
			continue
		}
		var last, ecc int
		rootOrder, last, ecc = s.visit(comp, rootOrder)
		for iter := 0; iter < 16; iter++ { // safety cap; converges in a few steps
			best := uint64(math.MaxUint64) // the last level's least (degree, index)
			for _, v := range rootOrder[last:] {
				best = min(best, uint64(s.a.ptr[v+1]-s.a.ptr[v])<<32|uint64(v))
			}
			for _, v := range rootOrder { // the next search of this component starts unmarked
				s.seen[v>>6] &^= 1 << (v & 63)
			}
			cand, cLast, cEcc := s.visit(int32(uint32(best)), candOrder)
			if cEcc <= ecc {
				break
			}
			rootOrder, candOrder = cand, rootOrder
			last, ecc = cLast, cEcc
		}
		for _, v := range rootOrder {
			next--
			perm[v] = next
		}
	}
	return perm, nil
}

// ValidatePermutation checks that perm is a bijection on [0, n).
func ValidatePermutation(perm []int32, n int) error {
	if len(perm) != n {
		return fmt.Errorf("reorder: permutation length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for i, p := range perm {
		if p < 0 || int(p) >= n {
			return fmt.Errorf("reorder: perm[%d]=%d outside [0,%d)", i, p, n)
		}
		if seen[p] {
			return fmt.Errorf("reorder: duplicate target %d", p)
		}
		seen[p] = true
	}
	return nil
}
