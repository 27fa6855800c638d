package core

import (
	"math/bits"

	"repro/internal/parallel"
	"repro/internal/partition"
)

// TouchedColumns runs the symbolic analysis of the Indexed method for an SSS
// matrix: per thread, the distinct columns below the partition start that
// the thread's rows reference — exactly the local-vector elements the
// multiplication phase will write — marked in a bitset in one pass and read
// back ascending.
func TouchedColumns(s *SSS, part *partition.RowPartition, pool *parallel.Pool) [][]int32 {
	perThread := make([][]int32, part.P())
	pool.Run(func(tid int) {
		if part.Start[tid] == 0 {
			return // no effective region
		}
		seen := make([]uint64, (part.Start[tid]+63)/64)
		cols := make([]int32, 0, markBelow(seen, s, part, tid))
		for w, word := range seen {
			for ; word != 0; word &= word - 1 {
				cols = append(cols, int32(w<<6|bits.TrailingZeros64(word)))
			}
		}
		perThread[tid] = cols
	})
	return perThread
}

// markBelow sets in seen, a clear bitset over [0, part.Start[tid]), the bit
// of every column below that start which thread tid's rows reference, and
// returns how many bits are set.
func markBelow(seen []uint64, s *SSS, part *partition.RowPartition, tid int) int {
	startT := part.Start[tid]
	for _, c := range s.ColIdx[s.RowPtr[startT]:s.RowPtr[part.End[tid]]] {
		if c < startT {
			seen[c>>6] |= 1 << (c & 63)
		}
	}
	n := 0
	for _, word := range seen {
		n += bits.OnesCount64(word)
	}
	return n
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
// it is the symbolic analysis alone — TouchedColumns' bitset pass, counted
// instead of read back — used by the tuner's model and the Fig. 4 sweep up
// to p = 256.
func ConflictIndexDensity(s *SSS, p int) (entries int64, regionSize int64, density float64) {
	part := partition.ByNNZ(s.RowPtr, p)
	buf := make([]uint64, (part.Start[p-1]+63)/64) // starts ascend: room for every thread's
	for t := 0; t < p; t++ {
		startT := part.Start[t]
		if startT == 0 {
			continue
		}
		seen := buf[:(startT+63)/64]
		clear(seen)
		entries += int64(markBelow(seen, s, part, t))
		regionSize += int64(startT)
	}
	if regionSize == 0 {
		return 0, 0, 0
	}
	return entries, regionSize, float64(entries) / float64(regionSize)
}
