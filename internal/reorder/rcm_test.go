package reorder

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// banded builds a symmetric banded matrix, then scrambles it with a random
// permutation — RCM should recover (approximately) the banded form.
func scrambledBanded(rng *rand.Rand, n, halfBW int) (*matrix.COO, int) {
	m := matrix.NewCOO(n, n, n*(halfBW+1))
	m.Symmetric = true
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	add := func(a, b int, v float64) {
		pa, pb := int(perm[a]), int(perm[b])
		if pa < pb {
			pa, pb = pb, pa
		}
		m.Add(pa, pb, v)
	}
	for r := 0; r < n; r++ {
		add(r, r, 4)
		for d := 1; d <= halfBW && r-d >= 0; d++ {
			add(r, r-d, -1)
		}
	}
	m.Normalize()
	return m, halfBW
}

// rcmReference is RCM as it was before its searches took Cuthill–McKee order:
// George–Liu's searches record levels and scan all n vertices for the last
// one, then a separate pass sorts each vertex's unplaced neighbours with a
// comparator. Components are taken in ascending (degree, index) order of
// their least vertex, from a stable sort of the vertices by degree. It is the
// oracle RCM's permutation is held to.
func rcmReference(m *matrix.COO) ([]int32, error) {
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
	ptr, adj := make([]int32, n+1), make([]int32, count)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + deg[i]
	}
	next := make([]int32, n)
	copy(next, ptr[:n])
	for k := range m.Val {
		r, c := m.RowIdx[k], m.ColIdx[k]
		if r == c {
			continue
		}
		adj[next[r]] = c
		next[r]++
		adj[next[c]] = r
		next[c]++
	}
	degree := func(v int32) int32 { return ptr[v+1] - ptr[v] }
	neighbors := func(v int32) []int32 { return adj[ptr[v]:ptr[v+1]] }
	bfsLevels := func(root int32, level []int32, order []int32) (visited int, ecc int32) {
		for i := range level {
			level[i] = -1
		}
		order = order[:0]
		level[root] = 0
		order = append(order, root)
		for head := 0; head < len(order); head++ {
			v := order[head]
			for _, w := range neighbors(v) {
				if level[w] < 0 {
					level[w] = level[v] + 1
					order = append(order, w)
				}
			}
		}
		return len(order), level[order[len(order)-1]]
	}
	pseudoPeripheral := func(seed int32, level, order []int32) int32 {
		root := seed
		_, ecc := bfsLevels(root, level, order[:0])
		for iter := 0; iter < 16; iter++ {
			var best int32 = -1
			n := int32(len(level))
			for v := int32(0); v < n; v++ {
				if level[v] == ecc {
					if best < 0 || degree(v) < degree(best) ||
						(degree(v) == degree(best) && v < best) {
						best = v
					}
				}
			}
			if best < 0 {
				break
			}
			_, ecc2 := bfsLevels(best, level, order[:0])
			if ecc2 <= ecc {
				break
			}
			root, ecc = best, ecc2
		}
		return root
	}

	cm := make([]int32, 0, n)
	placed := make([]bool, n)
	level := make([]int32, n)
	scratch := make([]int32, 0, n)
	byDegree := make([]int32, n)
	for v := range byDegree {
		byDegree[v] = int32(v)
	}
	sort.SliceStable(byDegree, func(i, j int) bool { return degree(byDegree[i]) < degree(byDegree[j]) })
	for _, comp := range byDegree {
		if placed[comp] {
			continue
		}
		root := pseudoPeripheral(comp, level, scratch)
		head := len(cm)
		cm = append(cm, root)
		placed[root] = true
		for head < len(cm) {
			v := cm[head]
			head++
			var nbr []int32
			for _, w := range neighbors(v) {
				if !placed[w] {
					nbr = append(nbr, w)
				}
			}
			sort.Slice(nbr, func(i, j int) bool {
				di, dj := degree(nbr[i]), degree(nbr[j])
				if di != dj {
					return di < dj
				}
				return nbr[i] < nbr[j]
			})
			for _, w := range nbr {
				if !placed[w] {
					placed[w] = true
					cm = append(cm, w)
				}
			}
		}
	}
	perm := make([]int32, n)
	for newIdx, oldIdx := range cm {
		perm[oldIdx] = int32(n - 1 - newIdx)
	}
	return perm, nil
}

// sameAsReference fails the test unless RCM and rcmReference agree on m.
func sameAsReference(t *testing.T, name string, m *matrix.COO) {
	t.Helper()
	want, _ := rcmReference(m)
	got, err := RCM(m)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: perm[%d] = %d, reference %d", name, i, got[i], want[i])
			}
		}
	}
}

// components is an n-row symmetric matrix of isolated vertices and
// two-vertex chains between randomly chosen rows.
func components(rng *rand.Rand, n int) *matrix.COO {
	m := matrix.NewCOO(n, n, 2*n)
	m.Symmetric = true
	for r := 0; r < n; r++ {
		m.Add(r, r, 2)
	}
	order := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		if rng.Intn(2) == 0 {
			a, b := order[i], order[i+1]
			m.Add(max(a, b), min(a, b), -1)
			i++
		}
	}
	return m.Normalize()
}

// poisson is the 5-point Laplacian on a side×side grid, lower triangle.
func poisson(side int) *matrix.COO {
	m := matrix.NewCOO(side*side, side*side, 3*side*side)
	m.Symmetric = true
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			v := i*side + j
			m.Add(v, v, 4)
			if j > 0 {
				m.Add(v, v-1, -1)
			}
			if i > 0 {
				m.Add(v, v-side, -1)
			}
		}
	}
	return m
}

func TestRCMMatchesReference(t *testing.T) {
	for _, name := range []string{"parabolic_fem", "offshore", "bmwcra_1", "powerlaw-s", "scattered-band"} {
		spec, err := gen.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := gen.Generate(spec, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		sameAsReference(t, name, m)
	}
	sameAsReference(t, "poisson 40x40", poisson(40))

	rng := rand.New(rand.NewSource(7))
	// Not normalized: every entry twice, a third of them three times, in a
	// shuffled order — parallel arcs raise degrees.
	dup, _ := scrambledBanded(rng, 300, 2)
	for k := range dup.Val {
		dup.Add(int(dup.RowIdx[k]), int(dup.ColIdx[k]), dup.Val[k])
		if k%3 == 0 {
			dup.Add(int(dup.RowIdx[k]), int(dup.ColIdx[k]), 1)
		}
	}
	rng.Shuffle(dup.NNZ(), func(i, j int) {
		dup.RowIdx[i], dup.RowIdx[j] = dup.RowIdx[j], dup.RowIdx[i]
		dup.ColIdx[i], dup.ColIdx[j] = dup.ColIdx[j], dup.ColIdx[i]
	})
	sameAsReference(t, "repeated entries", dup)

	// General storage with an unsymmetric pattern: either triangle links.
	unsym := matrix.NewCOO(400, 400, 1600)
	for r := 0; r < 400; r++ {
		unsym.Add(r, r, 1)
		for k := 0; k < 3; k++ {
			unsym.Add(r, rng.Intn(400), 1)
		}
	}
	sameAsReference(t, "unsymmetric pattern", unsym.Normalize())

	// Two chains and isolated vertices, and a graph with no edge at all.
	disc := matrix.NewCOO(10, 10, 14)
	disc.Symmetric = true
	for r := 0; r < 10; r++ {
		disc.Add(r, r, 1)
	}
	disc.Add(1, 0, -1)
	disc.Add(2, 1, -1)
	disc.Add(8, 7, -1)
	disc.Add(9, 8, -1)
	disc.Add(9, 5, -1)
	sameAsReference(t, "disconnected", disc.Normalize())
	sameAsReference(t, "isolated", matrix.NewCOO(50, 50, 0))

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		m, _ := scrambledBanded(rng, n, 1+rng.Intn(4))
		want, _ := rcmReference(m)
		got, err := RCM(m)
		return err == nil && slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRCMManyComponents: a component costs its own size, not n. (The search
// used to reset and scan all n vertices once per component, so this matrix
// took time quadratic in its rows.)
func TestRCMManyComponents(t *testing.T) {
	m := components(rand.New(rand.NewSource(17)), 1<<17)
	start := time.Now()
	perm, err := RCM(m)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("RCM on %d rows of isolated vertices and pairs took %v", m.Rows, d)
	}
	if err := ValidatePermutation(perm, m.Rows); err != nil {
		t.Fatal(err)
	}
	sameAsReference(t, "2^12 rows", components(rand.New(rand.NewSource(12)), 1<<12))
}

// TestRCMLevelOnlySearch: from one root, the level-only search and the
// Cuthill–McKee search reach the same vertices, end on the same last level
// and report the same eccentricity — all that George–Liu reads of a
// candidate.
func TestRCMLevelOnlySearch(t *testing.T) {
	check := func(name string, m *matrix.COO) {
		t.Helper()
		a, byDegree := buildAdjacency(m)
		n := int32(m.Rows)
		for _, root := range []int32{0, n / 2, n - 1, byDegree[0], byDegree[n-1]} {
			var orders [2][]int32
			var lasts, eccs [2]int
			for i, cm := range []bool{false, true} {
				s := &search{a: a, seen: make([]uint64, (n+63)/64)}
				orders[i], lasts[i], eccs[i] = s.visit(root, nil, cm)
			}
			if eccs[0] != eccs[1] || lasts[0] != lasts[1] {
				t.Fatalf("%s, root %d: level-only eccentricity %d (last level from %d), CM %d (from %d)",
					name, root, eccs[0], lasts[0], eccs[1], lasts[1])
			}
			for i := range orders {
				slices.Sort(orders[i][lasts[i]:])
			}
			if !slices.Equal(orders[0][lasts[0]:], orders[1][lasts[1]:]) {
				t.Fatalf("%s, root %d: the two searches end on different last levels", name, root)
			}
			for i := range orders {
				slices.Sort(orders[i])
			}
			if !slices.Equal(orders[0], orders[1]) {
				t.Fatalf("%s, root %d: the two searches reach different vertices", name, root)
			}
		}
	}
	for _, suite := range [][]gen.Spec{gen.PaperSuite, gen.HubSuite, gen.ScatterSuite} {
		for _, spec := range suite {
			m, err := gen.Generate(spec, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			check(spec.Name, m)
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(300)
		m := matrix.NewCOO(n, n, 3*n)
		for k := rng.Intn(3 * n); k > 0; k-- {
			m.Add(rng.Intn(n), rng.Intn(n), 1)
		}
		check("random graph", m)
		banded, _ := scrambledBanded(rng, n, 1+rng.Intn(4))
		check("scrambled band", banded)
	}
}

// TestRCMHopsToAPeripheralRoot: a vertex hung off the middle of a grid is
// its one vertex of least degree, so RCM starts there, but it is not
// peripheral. George–Liu hops to a corner, whose level-only search wins and
// is searched again in Cuthill–McKee order.
func TestRCMHopsToAPeripheralRoot(t *testing.T) {
	const side = 21
	m := poisson(side)
	n, mid := side*side+1, side/2*side+side/2
	m.Rows, m.Cols = n, n
	m.Add(n-1, n-1, 4)
	m.Add(n-1, mid, -1)
	sameAsReference(t, "grid with a pendant vertex", m)
	perm, _ := RCM(m)
	if perm[n-1] == int32(n-1) {
		t.Fatal("RCM kept the pendant vertex as its root")
	}
}

func TestRCMPermutationIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, _ := scrambledBanded(rng, 200, 3)
	perm, err := RCM(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePermutation(perm, 200); err != nil {
		t.Fatal(err)
	}
}

func TestRCMReducesBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, halfBW := scrambledBanded(rng, 500, 3)
	before := matrix.ComputeStats(m).Bandwidth
	perm, err := RCM(m)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	after := matrix.ComputeStats(pm).Bandwidth
	if after >= before/4 {
		t.Fatalf("RCM did not reduce bandwidth enough: %d -> %d", before, after)
	}
	// A chain-like banded graph should come back to within a small factor of
	// the original half bandwidth.
	if after > 8*halfBW {
		t.Errorf("recovered bandwidth %d far above original %d", after, halfBW)
	}
}

func TestRCMHandlesDisconnectedComponents(t *testing.T) {
	m := matrix.NewCOO(10, 10, 12)
	m.Symmetric = true
	for r := 0; r < 10; r++ {
		m.Add(r, r, 1)
	}
	// Two separate chains: 0-1-2 and 7-8-9; vertices 3..6 isolated.
	m.Add(1, 0, -1)
	m.Add(2, 1, -1)
	m.Add(8, 7, -1)
	m.Add(9, 8, -1)
	m.Normalize()
	perm, err := RCM(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePermutation(perm, 10); err != nil {
		t.Fatal(err)
	}
}

func TestRCMTinyAndEmpty(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		m := matrix.NewCOO(n, n, n)
		m.Symmetric = true
		for r := 0; r < n; r++ {
			m.Add(r, r, 1)
		}
		perm, err := RCM(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidatePermutation(perm, n); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRCMRejectsNonSquare(t *testing.T) {
	m := matrix.NewCOO(3, 4, 0)
	if _, err := RCM(m); err == nil {
		t.Fatal("RCM accepted non-square matrix")
	}
}

func TestValidatePermutation(t *testing.T) {
	if err := ValidatePermutation([]int32{0, 1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePermutation([]int32{0, 0, 2}, 3); err == nil {
		t.Fatal("accepted duplicate")
	}
	if err := ValidatePermutation([]int32{0, 3, 2}, 3); err == nil {
		t.Fatal("accepted out-of-range")
	}
	if err := ValidatePermutation([]int32{0, 1}, 3); err == nil {
		t.Fatal("accepted short permutation")
	}
}

// Property: RCM always returns a bijection and never *increases* the profile
// of a scrambled banded matrix.
func TestQuickRCMBijectionAndProfile(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(150)
		m, _ := scrambledBanded(rng, n, 1+rng.Intn(3))
		perm, err := RCM(m)
		if err != nil {
			return false
		}
		if ValidatePermutation(perm, n) != nil {
			return false
		}
		pm, err := m.Permute(perm)
		if err != nil {
			return false
		}
		return matrix.ComputeStats(pm).Profile <= matrix.ComputeStats(m).Profile
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRCM times the permutation of the parabolic_fem analog at scale
// 0.25 (131 456 rows, a scrambled 2-D stencil), alone and with the Permute
// that applies it.
func BenchmarkRCM(b *testing.B) {
	spec, err := gen.SpecByName("parabolic_fem")
	if err != nil {
		b.Fatal(err)
	}
	m, err := gen.Generate(spec, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	for _, permute := range []bool{false, true} {
		name := "rcm"
		if permute {
			name = "rcm+permute"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				perm, err := RCM(m)
				if err != nil {
					b.Fatal(err)
				}
				if permute {
					if _, err := m.Permute(perm); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
