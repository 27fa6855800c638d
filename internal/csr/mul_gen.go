// Code generated by go run ./gen (internal/core/gen/main.go); DO NOT EDIT.

package csr

// mulRows is the lower-row loop with the gather write policy (full rows, no
// transpose write) and lane width 1, over rows [lo, hi) of m.
func mulRows(m *Matrix, x, y []float64, lo, hi int) {
	rowPtr := m.RowPtr
	colIdx := m.ColIdx
	val := m.Val[:len(colIdx)]
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	for r := lo; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		acc := 0.0
		for ; j < jhi; j++ {
			c := colIdx[j]
			acc += val[j] * x[c] // gather
		}
		y[r] = acc
	}
}

// mulMatRows is the lower-row loop with the gather write policy (full rows, no
// transpose write) and lane width nv, over rows [lo, hi) of m.
func mulMatRows(m *Matrix, x, y []float64, nv, lo, hi int) {
	rowPtr := m.RowPtr
	colIdx := m.ColIdx
	val := m.Val[:len(colIdx)]
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	for r := lo; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * nv
		row := y[ri : ri+nv : ri+nv]
		clear(row)
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * nv
			a := val[j]
			xc := x[ci : ci+nv : ci+nv] // gather
			for v := range xc {
				row[v] += a * xc[v]
			}
		}
	}
}
