package matrix

import (
	"bytes"
	"math/rand"
	"testing"
)

// benchCOO is the symmetric band bandFile writes, in three entry orders.
func benchCOO(b *testing.B, order string) *COO {
	m, err := ReadMatrixMarket(bytes.NewReader(bandFile(400000)))
	if err != nil {
		b.Fatal(err)
	}
	switch order {
	case "sorted":
	case "permuted": // what Permute hands Normalize: a random relabelling
		rng := rand.New(rand.NewSource(1))
		perm := rng.Perm(m.Rows)
		for k := range m.Val {
			r, c := int32(perm[m.RowIdx[k]]), int32(perm[m.ColIdx[k]])
			m.RowIdx[k], m.ColIdx[k] = max(r, c), min(r, c)
		}
	case "column-major": // the order of a UF collection file
		m.RowIdx, m.ColIdx = m.ColIdx, m.RowIdx
		m.Symmetric = false
		m.Normalize()
		m.RowIdx, m.ColIdx = m.ColIdx, m.RowIdx
		m.Symmetric = true
	}
	return m
}

func BenchmarkNormalize(b *testing.B) {
	for _, order := range []string{"sorted", "permuted", "column-major"} {
		b.Run(order, func(b *testing.B) {
			src := benchCOO(b, order)
			work := src.Clone()
			b.SetBytes(int64(16 * src.NNZ()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work.RowIdx[:src.NNZ()], src.RowIdx)
				copy(work.ColIdx[:src.NNZ()], src.ColIdx)
				copy(work.Val[:src.NNZ()], src.Val)
				work.RowIdx, work.ColIdx, work.Val = work.RowIdx[:src.NNZ()], work.ColIdx[:src.NNZ()], work.Val[:src.NNZ()]
				b.StartTimer()
				work.Normalize()
			}
		})
	}
}

// stencilFile is a Matrix Market file shaped like the benchmark's stencil
// workloads: few entries per row at scattered columns, short value strings.
func stencilFile(rows int) []byte {
	rng := rand.New(rand.NewSource(int64(rows)))
	m := NewCOO(rows, rows, 4*rows)
	m.Symmetric = true
	for r := 0; r < rows; r++ {
		for k := 0; k < 3 && r > 0; k++ {
			m.Add(r, rng.Intn(r), -float64(1+rng.Intn(4))/4)
		}
		m.Add(r, r, 4)
	}
	m.Normalize()
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func BenchmarkReadMatrixMarket(b *testing.B) {
	for _, shape := range []struct {
		name string
		file []byte
	}{{"stencil", stencilFile(150000)}, {"banded", bandFile(400000)}} {
		b.Run(shape.name, func(b *testing.B) {
			b.SetBytes(int64(len(shape.file)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadMatrixMarket(bytes.NewReader(shape.file)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWriteMatrixMarket(b *testing.B) {
	m := benchCOO(b, "sorted")
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMatrixMarket(&buf, m); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}
