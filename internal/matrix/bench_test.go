package matrix

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchCOO is the symmetric band bandFile writes, in three entry orders, or
// the block band blockBand builds, in two more: rows of dozens of entries.
func benchCOO(b *testing.B, order string) *COO {
	var m *COO
	if strings.HasPrefix(order, "blocks") {
		m = blockBand(18600)
	} else {
		var err error
		if m, err = ReadMatrixMarket(bytes.NewReader(bandFile(400000))); err != nil {
			b.Fatal(err)
		}
	}
	switch order {
	case "sorted":
	case "permuted", "blocks-permuted": // what Permute hands Normalize: a random relabelling
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
	case "blocks-general": // what ToGeneral hands Normalize: each mirror after its original
		g := NewCOO(m.Rows, m.Cols, 2*m.NNZ())
		for k, v := range m.Val {
			r, c := int(m.RowIdx[k]), int(m.ColIdx[k])
			g.Add(r, c, v)
			if r != c {
				g.Add(c, r, v)
			}
		}
		m = g
	}
	return m
}

// blockBand is shaped like the bmwcra_1 analog the fem-banded benchmark
// workload runs at half its rows: dense 6×6 blocks, each block row coupled
// to its predecessor and four more blocks drawn from the 62 before it —
// about 34 stored entries a row, 66 once both triangles are stored.
func blockBand(rows int) *COO {
	const b, kb, window = 6, 5, 62
	rng := rand.New(rand.NewSource(int64(rows)))
	m := NewCOO(rows, rows, rows*(kb+1)*b)
	m.Symmetric = true
	for i := 0; i < rows/b; i++ {
		var blocks []int
		if i > 0 {
			blocks = append(blocks, i-1)
		}
		for len(blocks) < min(kb, i) {
			if j := i - 1 - rng.Intn(min(i, window)); !slices.Contains(blocks, j) {
				blocks = append(blocks, j)
			}
		}
		slices.Sort(blocks)
		for r := i * b; r < i*b+b; r++ {
			for _, j := range blocks {
				for c := j * b; c < j*b+b; c++ {
					m.Add(r, c, rng.NormFloat64())
				}
			}
			for c := i * b; c <= r; c++ {
				m.Add(r, c, rng.NormFloat64())
			}
		}
	}
	return m
}

func BenchmarkNormalize(b *testing.B) {
	for _, order := range []string{"sorted", "permuted", "column-major", "blocks-general", "blocks-permuted"} {
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
	banded := bandFile(400000)
	path := filepath.Join(b.TempDir(), "banded.mtx")
	if err := os.WriteFile(path, banded, 0o644); err != nil {
		b.Fatal(err)
	}
	fromBytes := func(file []byte) (*COO, error) { return ReadMatrixMarket(bytes.NewReader(file)) }
	for _, shape := range []struct {
		name string
		file []byte
		read func([]byte) (*COO, error)
	}{
		{"stencil", stencilFile(150000), fromBytes},
		{"banded", banded, fromBytes},
		// The banded file again, by the path set-up reads a matrix: the COO
		// sized from the file's length.
		{"file", banded, func([]byte) (*COO, error) { return ReadMatrixMarketFile(path) }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			b.SetBytes(int64(len(shape.file)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shape.read(shape.file); err != nil {
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
