package csx

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/partition"
)

// coverageReference is the statistics pass as it was before it borrowed the
// detector's counting sort: each direction's sample goes through a
// comparator sort on (line key, position along the line).
func coverageReference(d *detector, sample []int32) (cov [numDirections]float64) {
	for _, dir := range d.opts.Directions {
		key, pos := directionKeyPos(dir, d.el)
		sub := append([]int32(nil), sample...)
		sort.Slice(sub, func(a, b int) bool {
			i, j := sub[a], sub[b]
			if key(i) != key(j) {
				return key(i) < key(j)
			}
			return pos(i) < pos(j)
		})
		covered, runLen := 0, 1
		for a := 1; a <= len(sub); a++ {
			if a < len(sub) && key(sub[a-1]) == key(sub[a]) && pos(sub[a]) == pos(sub[a-1])+1 {
				runLen++
				continue
			}
			if runLen >= d.opts.MinRunLength {
				covered += runLen
			}
			runLen = 1
		}
		cov[dir] = float64(covered) / float64(len(sample))
	}
	return cov
}

// suiteSSS builds a generated suite matrix at test scale.
func suiteSSS(t *testing.T, name string, rows int) *core.SSS {
	t.Helper()
	spec, err := gen.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gen.Generate(spec, float64(rows)/float64(spec.Rows))
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSampleStatsMatchesComparatorSort: the counting-sorted sample yields the
// same total order as the comparator sort, so the coverages — which pick the
// unit types — are equal to the last bit, on every thread's row range, with
// the sampled and the exhaustive sample both.
func TestSampleStatsMatchesComparatorSort(t *testing.T) {
	for _, name := range []string{"bmwcra_1", "parabolic_fem"} {
		s := suiteSSS(t, name, 6000)
		part := partition.ByNNZ(s.RowPtr, 3)
		for tid := range part.Start {
			el, _, _ := buildElements(s.RowPtr, s.ColIdx, part.Start[tid], part.End[tid])
			for _, fraction := range []float64{DefaultOptions().SampleFraction, 1} {
				opts := DefaultOptions()
				opts.SampleFraction = fraction
				d := newDetector(el, opts, part.Start[tid])
				d.sampleStats()
				if want := coverageReference(d, d.rowSample()); d.dirCoverage != want {
					t.Errorf("%s thread %d fraction %g: coverage %v, comparator sort gives %v", name, tid, fraction, d.dirCoverage, want)
				}
			}
		}
	}
}

// TestSymBlobBytesPinned pins the serialized CSX-Sym matrix of two suite
// matrices to the bytes the encoder produced before the set-up path was
// rewritten: the reader, Normalize and the statistics pass may get faster,
// the encoding may not move.
func TestSymBlobBytesPinned(t *testing.T) {
	pinned := map[string]string{
		"bmwcra_1":      "7783fe4e6d0baa6ba40f3ae9a0ee9de8105ac03ca636dd1934192934622f0b67",
		"parabolic_fem": "c364409a133c9f3ee84e85d3b42651ba93d11e6f21cf22b3f63a15b3df51145c",
	}
	for name, want := range pinned {
		sm := NewSym(suiteSSS(t, name, 6000), 3, core.Indexed, DefaultOptions())
		var buf bytes.Buffer
		if _, err := sm.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
			t.Errorf("%s: %d serialized bytes hash to %s, pinned %s", name, buf.Len(), got, want)
		}
	}
}
