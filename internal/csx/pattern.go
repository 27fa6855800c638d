// Package csx implements the Compressed Sparse eXtended storage format of
// Kourtis et al. (PPoPP'11) and the paper's symmetric variant CSX-Sym.
//
// CSX abandons CSR's rowptr/colind arrays for a single byte stream (ctl)
// describing a sequence of units: either substructure units (horizontal,
// vertical, diagonal, anti-diagonal runs and small 2-D blocks) that need no
// per-element indexing at all, or delta units that store per-element column
// deltas in the narrowest of 8/16/32 bits. The values array holds the
// nonzeros in unit order.
//
// The original system JIT-compiles a specialized multiply routine per matrix
// with LLVM. Go has no runtime code generation, so this package substitutes
// a dispatch table of hand-specialized decode kernels, one per unit type —
// the same algorithmic effect (tight, branch-free inner loops per pattern)
// within Go's ahead-of-time compilation model (DESIGN.md §17.2).
package csx

import "fmt"

// Pattern identifies the encoding of one ctl unit (low 6 bits of the flags
// byte).
type Pattern uint8

const (
	// Delta8, Delta16 and Delta32 are delta units: the body carries size-1
	// column deltas in 1, 2 or 4 bytes each.
	Delta8 Pattern = iota
	Delta16
	Delta32
	// Horizontal is a run of size elements at (r, c), (r, c+1), …
	Horizontal
	// Vertical is a run of size elements at (r, c), (r+1, c), …
	Vertical
	// Diagonal is a run of size elements at (r, c), (r+1, c+1), …
	Diagonal
	// AntiDiagonal is a run of size elements at (r, c), (r+1, c-1), …
	AntiDiagonal
	// Block2 is a dense 2×w block anchored at (r, c), stored row-major
	// (size = 2w elements).
	Block2
	// Block3 is a dense 3×w block anchored at (r, c), stored row-major
	// (size = 3w elements).
	Block3

	numPatterns = iota
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Delta8:
		return "delta8"
	case Delta16:
		return "delta16"
	case Delta32:
		return "delta32"
	case Horizontal:
		return "horizontal"
	case Vertical:
		return "vertical"
	case Diagonal:
		return "diagonal"
	case AntiDiagonal:
		return "anti-diagonal"
	case Block2:
		return "block2"
	case Block3:
		return "block3"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// Direction is a substructure search direction for the detector. Block
// patterns are derived from aligned horizontal runs, so they are not
// independent directions.
type Direction int

const (
	DirHorizontal Direction = iota
	DirVertical
	DirDiagonal
	DirAntiDiagonal
	numDirections
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirHorizontal:
		return "horizontal"
	case DirVertical:
		return "vertical"
	case DirDiagonal:
		return "diagonal"
	case DirAntiDiagonal:
		return "anti-diagonal"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

func (d Direction) pattern() Pattern {
	switch d {
	case DirHorizontal:
		return Horizontal
	case DirVertical:
		return Vertical
	case DirDiagonal:
		return Diagonal
	case DirAntiDiagonal:
		return AntiDiagonal
	}
	panic("csx: bad direction")
}

// Options tunes detection and encoding.
type Options struct {
	// MinRunLength is the minimum elements for a 1-D substructure unit.
	// Shorter runs degrade to delta units. Default 3 (the dense 3×3 blocks
	// of FEM matrices produce length-3 horizontal runs).
	MinRunLength int
	// MinCoverage is the fraction of sampled nonzeros a direction must cover
	// with runs for it to be enabled at all (the paper's statistics-driven
	// type selection). Default 0.05.
	MinCoverage float64
	// SampleFraction is the fraction of rows examined by the statistics
	// pass that selects directions (the paper's matrix sampling, §V-E).
	// Detection itself is exact for the selected directions. Default 0.25.
	SampleFraction float64
	// Directions restricts the candidate search. Empty means all four.
	Directions []Direction
	// EnableBlocks turns on 2-D block detection (Block2/Block3) from
	// aligned horizontal runs. Default true.
	EnableBlocks bool
}

// DefaultOptions returns the defaults described on each Options field.
func DefaultOptions() Options {
	return Options{
		MinRunLength:   3,
		MinCoverage:    0.05,
		SampleFraction: 0.25,
		EnableBlocks:   true,
	}
}

func (o Options) withDefaults() Options {
	if o.MinRunLength <= 1 {
		o.MinRunLength = 3
	}
	if o.MinCoverage <= 0 {
		o.MinCoverage = 0.05
	}
	if o.SampleFraction <= 0 || o.SampleFraction > 1 {
		o.SampleFraction = 0.25
	}
	if len(o.Directions) == 0 {
		o.Directions = []Direction{DirHorizontal, DirVertical, DirDiagonal, DirAntiDiagonal}
	}
	return o
}

// flags byte layout: NR | RJMP | 6-bit pattern.
const (
	flagNR      = 0x80 // unit starts a new row
	flagRJMP    = 0x40 // row jump > 1: a uvarint row-delta follows the size byte
	patternMask = 0x3f
)

// maxUnitSize caps unit element counts at what the size byte can carry.
const maxUnitSize = 255
