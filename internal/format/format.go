// Package format is the library's one list of storage formats: an ID per
// format and one Descriptor row carrying its names, what it can do on which
// symmetry class, how to build it, and how the performance model prices it
// before and after it is built. The facade, the autotuner, the experiment
// harness, the server and the commands all read this table; adding a format
// is adding a row.
package format

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

// ID names a storage format / kernel configuration. The values are the
// public symspmv.Format constants and the format field of the tuning cache.
type ID int

const (
	// CSR is the unsymmetric Compressed Sparse Row baseline.
	CSR ID = iota
	// CSX is the unsymmetric Compressed Sparse eXtended format.
	CSX
	// SSSNaive is the symmetric SSS kernel with naive full local vectors.
	SSSNaive
	// SSSEffective is SSS with the effective-ranges reduction.
	SSSEffective
	// SSSIndexed is SSS with the paper's local-vectors indexing (the
	// recommended symmetric configuration).
	SSSIndexed
	// CSXSym is the compressed symmetric format with indexed reduction
	// (highest compression; pays a preprocessing cost).
	CSXSym
	// SSSColored is SSS under the conflict-free two-phase schedule: threads
	// write y directly, first each range without the elements below its
	// first row, then those deferred elements — no local vectors and no
	// reduction phase at all. It needs a low-bandwidth (e.g. RCM-reordered)
	// matrix, where the schedule keeps every thread busy.
	SSSColored
)

// Caps is a set of capability bits.
type Caps uint16

const (
	// Symmetric, Skew and Structural are the symmetry classes the format
	// computes correctly (A = Aᵀ, A = −Aᵀ, mirrored pattern with unmirrored
	// values).
	Symmetric Caps = 1 << iota
	Skew
	Structural
	// MulMat: the format has a multi-RHS (SpMM) kernel.
	MulMat
	// FusedDot: the format computes y = A·x and xᵀ·y in one dispatch.
	FusedDot
	// Serial: the encoded matrix can be persisted (SaveKernel).
	Serial
	// Tuned: the format is in the autotuner's plan space.
	Tuned
	// General: the format stores the expanded general operator, built from
	// the COO form, so MulMat holds on every class it runs. The symmetric-storage formats have
	// skew/structural bodies for MulVec and the fused dot only; their MulMat
	// exists for symmetric matrices alone.
	General

	// AnyClass is all three symmetry classes.
	AnyClass = Symmetric | Skew | Structural
)

// symOnly are the capabilities a symmetric-storage format loses on a skew or
// structural matrix.
const symOnly = MulMat

// capNames words a capability for error messages.
var capNames = map[Caps]string{
	MulMat: "SpMM kernel", FusedDot: "fused dot",
	Serial: "serialized form", Tuned: "autotune plan",
}

// Descriptor is one row of the format table.
type Descriptor struct {
	ID ID
	// Name is the canonical label: what String prints and every table shows.
	Name string
	// Aliases are the further spellings Parse accepts, lower case.
	Aliases []string
	Caps    Caps

	// build constructs the kernel on pool; Build has already checked the
	// class.
	build func(d *Descriptor, m *Matrix, pool *parallel.Pool, o Options) (*Built, error)
	// estimate finishes the model-stage cost of the unbuilt format at p
	// threads (see Estimate); nil outside the autotune plan space.
	estimate func(d *Descriptor, sh *Shape, p int) perfmodel.SpMVCost
}

// table is the registry, indexed by ID.
var table = [...]Descriptor{
	CSR: {Name: "CSR", Caps: AnyClass | General | MulMat | Tuned,
		build: buildCSR, estimate: estimateCSR},
	CSX: {Name: "CSX", Caps: AnyClass | General, build: buildCSX},
	SSSNaive: {Name: "SSS-naive", Caps: AnyClass | MulMat | FusedDot | Tuned,
		build: buildSSS, estimate: estimateSym},
	SSSEffective: {Name: "SSS-effective", Aliases: []string{"sss-eff"},
		Caps:  AnyClass | MulMat | FusedDot | Tuned,
		build: buildSSS, estimate: estimateSym},
	SSSIndexed: {Name: "SSS-indexed", Aliases: []string{"sss", "sss-idx"},
		Caps:  AnyClass | MulMat | FusedDot | Tuned,
		build: buildSSS, estimate: estimateSym},
	CSXSym: {Name: "CSX-Sym", Caps: Symmetric | FusedDot | Serial | Tuned,
		build: buildCSXSym, estimate: estimateSym},
	SSSColored: {Name: "SSS-colored", Aliases: []string{"sss-color"},
		Caps:  AnyClass | MulMat | FusedDot | Tuned,
		build: buildSSS, estimate: estimateSym},
}

func init() {
	for i := range table {
		table[i].ID = ID(i)
	}
}

// All lists every format in ID order.
func All() []ID {
	out := make([]ID, len(table))
	for i := range table {
		out[i] = ID(i)
	}
	return out
}

// Valid reports whether f names a row of the table.
func (f ID) Valid() bool { return f >= 0 && int(f) < len(table) }

// Desc returns f's descriptor; it panics on an ID outside the table (check
// IDs that come from outside the program with Valid first).
func (f ID) Desc() *Descriptor { return &table[f] }

// String implements fmt.Stringer with the canonical label.
func (f ID) String() string {
	if !f.Valid() {
		return fmt.Sprintf("Format(%d)", int(f))
	}
	return table[f].Name
}

// Has reports whether the format runs matrices of class k and offers every
// capability in c on them.
func (d *Descriptor) Has(c Caps, k core.SymKind) bool { return d.Check(c, k) == nil }

// Check is Has with the reason: nil, or an *UnsupportedError saying whether
// the class or the capability is what the format lacks.
func (d *Descriptor) Check(c Caps, k core.SymKind) error {
	c &^= AnyClass | General
	switch {
	case d.Caps&(Symmetric<<k) == 0:
		return &UnsupportedError{d.ID, fmt.Sprintf("the %v format supports only symmetric matrices, got a %s one", d.ID, k)}
	case d.Caps&c != c:
		return &UnsupportedError{d.ID, fmt.Sprintf("the %v format has no %s", d.ID, capList(c&^d.Caps))}
	case k != core.Sym && d.Caps&General == 0 && c&symOnly != 0:
		return &UnsupportedError{d.ID, fmt.Sprintf("the %v format's %s supports only symmetric matrices, got a %s one", d.ID, capList(c&symOnly), k)}
	}
	return nil
}

func capList(c Caps) string {
	var names []string
	for bit := MulMat; bit <= Tuned; bit <<= 1 {
		if c&bit != 0 {
			names = append(names, capNames[bit])
		}
	}
	return strings.Join(names, ", ")
}

// UnsupportedError is the typed error for asking a format for a symmetry
// class or capability its descriptor does not offer. Match with errors.As.
type UnsupportedError struct {
	Format ID
	Reason string
}

func (e *UnsupportedError) Error() string { return e.Reason }

// Parse resolves a format name: each format's canonical label and aliases,
// case-insensitively. The error lists the accepted names.
func Parse(name string) (ID, error) {
	want := strings.ToLower(name)
	for i := range table {
		if strings.ToLower(table[i].Name) == want {
			return ID(i), nil
		}
		for _, a := range table[i].Aliases {
			if a == want {
				return ID(i), nil
			}
		}
	}
	return 0, fmt.Errorf("unknown format %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names lists every accepted spelling, lower case, in table order.
func Names() []string {
	var out []string
	for i := range table {
		out = append(out, strings.ToLower(table[i].Name))
		out = append(out, table[i].Aliases...)
	}
	return out
}
