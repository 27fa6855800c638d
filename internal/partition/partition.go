// Package partition splits the rows of a sparse matrix among threads so that
// each partition carries an approximately equal number of stored nonzero
// elements, the assignment policy used throughout the paper (Fig. 3a).
package partition

import "fmt"

// RowPartition describes a row-wise split: thread i owns rows
// [Start[i], End[i]). Partitions are contiguous, ordered and cover [0, N).
type RowPartition struct {
	Start []int32
	End   []int32
}

// P reports the number of partitions.
func (rp *RowPartition) P() int { return len(rp.Start) }

// Owner returns the partition owning row r (binary search).
func (rp *RowPartition) Owner(r int32) int {
	lo, hi := 0, rp.P()-1
	for lo < hi {
		mid := (lo + hi) / 2
		if rp.End[mid] <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Validate checks the partition invariants against a matrix with n rows.
func (rp *RowPartition) Validate(n int) error {
	if len(rp.Start) != len(rp.End) {
		return fmt.Errorf("partition: ragged Start/End: %d/%d", len(rp.Start), len(rp.End))
	}
	if rp.P() == 0 {
		return fmt.Errorf("partition: empty partition")
	}
	if rp.Start[0] != 0 {
		return fmt.Errorf("partition: first partition starts at %d, want 0", rp.Start[0])
	}
	if int(rp.End[rp.P()-1]) != n {
		return fmt.Errorf("partition: last partition ends at %d, want %d", rp.End[rp.P()-1], n)
	}
	for i := 0; i < rp.P(); i++ {
		if rp.Start[i] > rp.End[i] {
			return fmt.Errorf("partition %d: start %d > end %d", i, rp.Start[i], rp.End[i])
		}
		if i > 0 && rp.Start[i] != rp.End[i-1] {
			return fmt.Errorf("partition %d: gap/overlap: starts at %d, previous ends at %d",
				i, rp.Start[i], rp.End[i-1])
		}
	}
	return nil
}

// ByNNZ computes a p-way partition of n rows balancing the per-partition
// nonzero count. rowPtr is a CSR-style row pointer array of length n+1
// (rowPtr[r+1]-rowPtr[r] = stored nonzeros of row r). Every partition is
// assigned at least zero rows; trailing partitions may be empty when p > n.
func ByNNZ(rowPtr []int32, p int) *RowPartition {
	if p <= 0 {
		panic(fmt.Sprintf("partition: ByNNZ with p=%d", p))
	}
	n := int32(len(rowPtr) - 1)
	rp := &RowPartition{Start: make([]int32, p), End: make([]int32, p)}
	base := int64(rowPtr[0])
	total := int64(rowPtr[n]) - base
	row := int32(0)
	for i := 0; i < p; i++ {
		rp.Start[i] = row
		// target cumulative nnz after partition i
		target := base + total*int64(i+1)/int64(p)
		for row < n && int64(rowPtr[row+1]) <= target {
			row++
		}
		// Always make progress when rows remain and this is not forced empty:
		// a single huge row can exceed the target; take it anyway so no row is
		// dropped and no partition repeats rows.
		if row < n && row == rp.Start[i] {
			row++
		}
		if i == p-1 {
			row = n
		}
		rp.End[i] = row
	}
	return rp
}

// Uniform computes a p-way partition of n rows with equal row counts,
// remainder rows going to the leading partitions. It is the split used for
// the reduction phase of the naive and effective-ranges methods.
func Uniform(n, p int) *RowPartition {
	if p <= 0 {
		panic(fmt.Sprintf("partition: Uniform with p=%d", p))
	}
	rp := &RowPartition{Start: make([]int32, p), End: make([]int32, p)}
	q, r := n/p, n%p
	lo := 0
	for i := 0; i < p; i++ {
		hi := lo + q
		if i < r {
			hi++
		}
		rp.Start[i], rp.End[i] = int32(lo), int32(hi)
		lo = hi
	}
	return rp
}

// NNZOf reports the stored nonzeros assigned to partition i under rowPtr.
func (rp *RowPartition) NNZOf(rowPtr []int32, i int) int64 {
	return int64(rowPtr[rp.End[i]]) - int64(rowPtr[rp.Start[i]])
}

// Imbalance returns max/mean partition nnz (1.0 = perfectly balanced).
func (rp *RowPartition) Imbalance(rowPtr []int32) float64 {
	p := rp.P()
	var max, sum int64
	for i := 0; i < p; i++ {
		c := rp.NNZOf(rowPtr, i)
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(p)
	return float64(max) / mean
}

// Frontier scans rows [lo, hi) of a strict-lower CSR structure with ascending
// columns for the rows whose first stored column lies below lo. It returns the
// local frontier, one past the last such row (lo when there is none): rows
// from there on write only inside [lo, hi). It also returns the lowest first
// column of those rows (lo when there is none).
func Frontier(rowPtr, colIdx []int32, lo, hi int32) (front, low int32) {
	front, low = lo, lo
	for r := lo; r < hi; r++ {
		if j := rowPtr[r]; j < rowPtr[r+1] && colIdx[j] < lo {
			front, low = r+1, min(low, colIdx[j])
		}
	}
	return front, low
}
