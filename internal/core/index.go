package core

import (
	"slices"

	"repro/internal/parallel"
	"repro/internal/partition"
)

// TouchedColumns runs the symbolic analysis of the Indexed method for an SSS
// matrix: per thread, the distinct columns below the partition start that
// the thread's rows reference — exactly the local-vector elements the
// multiplication phase will write. Results are ascending and deduplicated.
func TouchedColumns(s *SSS, part *partition.RowPartition, pool *parallel.Pool) [][]int32 {
	p := part.P()
	perThread := make([][]int32, p)
	pool.Run(func(tid int) {
		startT := part.Start[tid]
		if startT == 0 {
			return // no effective region
		}
		var touched []int32
		for r := part.Start[tid]; r < part.End[tid]; r++ {
			for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
				if c := s.ColIdx[j]; c < startT {
					touched = append(touched, c)
				}
			}
		}
		perThread[tid] = sortDedup(touched)
	})
	return perThread
}

// sortDedup sorts ascending and removes duplicates in place.
func sortDedup(v []int32) []int32 {
	slices.Sort(v)
	w := 0
	for i, c := range v {
		if i == 0 || c != v[w-1] {
			v[w] = c
			w++
		}
	}
	return v[:w]
}

// splitIndex computes p+1 boundaries into a sorted index so that slices are
// nearly equal in length and no Idx value is shared between two slices
// (boundaries are advanced past runs of equal Idx), guaranteeing independent
// output-vector updates across reduction workers.
func splitIndex(index []IndexEntry, p int) []int32 {
	bounds := make([]int32, p+1)
	n := len(index)
	for w := 1; w < p; w++ {
		lo, _ := parallel.Chunk(n, p, w)
		b := lo
		for b > 0 && b < n && index[b].Idx == index[b-1].Idx {
			b++
		}
		if prev := int(bounds[w-1]); b < prev {
			b = prev
		}
		bounds[w] = int32(b)
	}
	bounds[p] = int32(n)
	return bounds
}

// ConflictIndexDensity computes the effective-region density for an SSS
// matrix at an arbitrary thread count p without materializing local vectors:
// it is the symbolic analysis alone, used by the Fig. 4 sweep up to p = 256.
func ConflictIndexDensity(s *SSS, p int) (entries int64, regionSize int64, density float64) {
	part := partition.ByNNZ(s.RowPtr, p)
	touchedTotal := int64(0)
	for t := 0; t < p; t++ {
		startT := part.Start[t]
		if startT == 0 {
			continue
		}
		seen := make(map[int32]struct{})
		for r := part.Start[t]; r < part.End[t]; r++ {
			for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
				if c := s.ColIdx[j]; c < startT {
					seen[c] = struct{}{}
				}
			}
		}
		touchedTotal += int64(len(seen))
		regionSize += int64(startT)
	}
	if regionSize == 0 {
		return 0, 0, 0
	}
	return touchedTotal, regionSize, float64(touchedTotal) / float64(regionSize)
}
