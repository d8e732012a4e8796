// Package workload models tensor-algebra operations in the Einsum-like form
// used by Timeloop-style mappers: a fully nested loop iteration space over
// named dimensions, with each operand tensor indexed by a projection of those
// dimensions. Convolutions use compound coordinates (sliding windows) so that
// input-halo tile footprints are computed correctly.
package workload

import (
	"fmt"
	"sort"
	"strings"
)

// Role classifies an operand tensor. Architecture models key dedicated
// per-operand buffers (e.g. Eyeriss's ifmap/weight/psum scratchpads) by role.
type Role uint8

const (
	// Input is a streaming operand (e.g. the IFM of a convolution or the
	// activation matrix of a GEMM).
	Input Role = iota
	// Weight is a model-parameter operand (filters, GEMM weight matrix).
	Weight
	// Output is the produced tensor; reduction dimensions not appearing in
	// its projection cause partial-sum traffic.
	Output
)

// Roles lists all roles in canonical order.
var Roles = []Role{Input, Weight, Output}

func (r Role) String() string {
	switch r {
	case Input:
		return "Input"
	case Weight:
		return "Weight"
	case Output:
		return "Output"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// ParseRole converts a role name ("input", "weight", "output", case-
// insensitive) back to a Role.
func ParseRole(s string) (Role, error) {
	switch strings.ToLower(s) {
	case "input":
		return Input, nil
	case "weight":
		return Weight, nil
	case "output":
		return Output, nil
	default:
		return 0, fmt.Errorf("workload: unknown role %q", s)
	}
}

// Dim is one loop of the iteration space.
type Dim struct {
	Name  string
	Bound int // loop bound, >= 1
}

// CoordTerm is one term of a compound tensor coordinate: Stride*iter(Dim).
// A plain coordinate has a single term with stride 1. A convolution's input
// width coordinate is strideW*Q + dilationW*S (two terms).
type CoordTerm struct {
	Dim    string
	Stride int
}

// Coord is one coordinate (axis) of a tensor, a sum of terms. The extent of
// the axis for a tile with per-dimension extents t is
// 1 + sum_i Stride_i*(t_i - 1), the standard halo formula.
type Coord struct {
	Terms []CoordTerm
}

// Tensor is one operand of the workload.
type Tensor struct {
	Name   string
	Role   Role
	Coords []Coord
}

// Workload is a tensor operation: an iteration space plus operand tensors.
type Workload struct {
	Name    string
	Dims    []Dim
	Tensors []Tensor

	bounds map[string]int
	byName map[string]*Tensor
	byteID []int16 // first-byte dim-id table when all names are distinct single bytes
}

// New constructs a Workload and validates it.
func New(name string, dims []Dim, tensors []Tensor) (*Workload, error) {
	w := &Workload{Name: name, Dims: dims, Tensors: tensors}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	w.index()
	return w, nil
}

// MustNew is New, panicking on error. Intended for package-level presets.
func MustNew(name string, dims []Dim, tensors []Tensor) *Workload {
	w, err := New(name, dims, tensors)
	if err != nil {
		panic(err)
	}
	return w
}

func (w *Workload) index() {
	w.bounds = make(map[string]int, len(w.Dims))
	for _, d := range w.Dims {
		w.bounds[d.Name] = d.Bound
	}
	w.byName = make(map[string]*Tensor, len(w.Tensors))
	for i := range w.Tensors {
		w.byName[w.Tensors[i].Name] = &w.Tensors[i]
	}
	w.byteID = make([]int16, 256)
	for i := range w.byteID {
		w.byteID[i] = -1
	}
	for di := range w.Dims {
		name := w.Dims[di].Name
		if len(name) != 1 || w.byteID[name[0]] >= 0 {
			w.byteID = nil
			break
		}
		w.byteID[name[0]] = int16(di)
	}
}

// DimID returns the declaration-order index of the named dimension, or -1
// when the name is unknown. Single-byte dimension names (every built-in
// workload) resolve through a byte-indexed table instead of string
// comparisons, keeping the dense-lowering hot path off the string hasher.
//
//ruby:hotpath
func (w *Workload) DimID(name string) int16 {
	if w.byteID != nil {
		if len(name) != 1 {
			return -1
		}
		return w.byteID[name[0]]
	}
	for di := range w.Dims {
		if w.Dims[di].Name == name {
			return int16(di)
		}
	}
	return -1
}

// Validate checks structural invariants: unique positive-bound dims, tensors
// referencing only declared dims, exactly one output tensor, and positive
// strides.
func (w *Workload) Validate() error {
	if len(w.Dims) == 0 {
		return fmt.Errorf("workload %q: no dimensions", w.Name)
	}
	seen := make(map[string]bool)
	for _, d := range w.Dims {
		if d.Name == "" {
			return fmt.Errorf("workload %q: empty dimension name", w.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("workload %q: duplicate dimension %q", w.Name, d.Name)
		}
		seen[d.Name] = true
		if d.Bound < 1 {
			return fmt.Errorf("workload %q: dimension %q bound %d < 1", w.Name, d.Name, d.Bound)
		}
	}
	if len(w.Tensors) == 0 {
		return fmt.Errorf("workload %q: no tensors", w.Name)
	}
	outputs := 0
	names := make(map[string]bool)
	for _, t := range w.Tensors {
		if t.Name == "" {
			return fmt.Errorf("workload %q: empty tensor name", w.Name)
		}
		if names[t.Name] {
			return fmt.Errorf("workload %q: duplicate tensor %q", w.Name, t.Name)
		}
		names[t.Name] = true
		if t.Role == Output {
			outputs++
		}
		for ci, c := range t.Coords {
			if len(c.Terms) == 0 {
				return fmt.Errorf("workload %q: tensor %q coord %d has no terms", w.Name, t.Name, ci)
			}
			for _, term := range c.Terms {
				if !seen[term.Dim] {
					return fmt.Errorf("workload %q: tensor %q references unknown dim %q", w.Name, t.Name, term.Dim)
				}
				if term.Stride < 1 {
					return fmt.Errorf("workload %q: tensor %q dim %q stride %d < 1", w.Name, t.Name, term.Dim, term.Stride)
				}
			}
		}
	}
	if outputs != 1 {
		return fmt.Errorf("workload %q: %d output tensors, want exactly 1", w.Name, outputs)
	}
	return nil
}

// DimNames returns the dimension names in declaration order.
func (w *Workload) DimNames() []string {
	out := make([]string, len(w.Dims))
	for i, d := range w.Dims {
		out[i] = d.Name
	}
	return out
}

// Bound returns the loop bound of the named dimension; it panics on unknown
// names (always a programming error).
func (w *Workload) Bound(dim string) int {
	b, ok := w.bounds[dim]
	if !ok {
		panic(fmt.Sprintf("workload %q: unknown dimension %q", w.Name, dim))
	}
	return b
}

// Tensor returns the named tensor, or nil.
func (w *Workload) Tensor(name string) *Tensor {
	return w.byName[name]
}

// TensorByRole returns the first tensor with the given role, or nil.
func (w *Workload) TensorByRole(r Role) *Tensor {
	for i := range w.Tensors {
		if w.Tensors[i].Role == r {
			return &w.Tensors[i]
		}
	}
	return nil
}

// Output returns the output tensor.
func (w *Workload) Output() *Tensor { return w.TensorByRole(Output) }

// MACs returns the total number of compute operations: the product of all
// dimension bounds.
func (w *Workload) MACs() uint64 {
	total := uint64(1)
	for _, d := range w.Dims {
		total *= uint64(d.Bound)
	}
	return total
}

// RelevantDims returns the set of workload dimensions indexing tensor t.
func (t *Tensor) RelevantDims() map[string]bool {
	out := make(map[string]bool)
	for _, c := range t.Coords {
		for _, term := range c.Terms {
			out[term.Dim] = true
		}
	}
	return out
}

// Relevant reports whether dim indexes tensor t.
func (t *Tensor) Relevant(dim string) bool {
	for _, c := range t.Coords {
		for _, term := range c.Terms {
			if term.Dim == dim {
				return true
			}
		}
	}
	return false
}

// ReductionDims returns, for the workload's output tensor, the dimensions
// that are reduced over (iterated but not indexing the output). For a
// convolution these are C, R, S; for a GEMM, K.
func (w *Workload) ReductionDims() []string {
	out := w.Output()
	rel := out.RelevantDims()
	var red []string
	for _, d := range w.Dims {
		if !rel[d.Name] {
			red = append(red, d.Name)
		}
	}
	return red
}

// TileVolume returns the number of elements of tensor t touched by a tile
// whose per-dimension extents are given by tile (dimensions absent from the
// map default to extent 1). Compound coordinates use the halo formula
// extent = 1 + sum_i stride_i*(t_i - 1).
func (t *Tensor) TileVolume(tile map[string]int) int64 {
	vol := int64(1)
	for _, c := range t.Coords {
		extent := 1
		for _, term := range c.Terms {
			te := tile[term.Dim]
			if te == 0 {
				te = 1
			}
			extent += term.Stride * (te - 1)
		}
		vol *= int64(extent)
	}
	return vol
}

// Size returns the total number of elements of tensor t under the full
// workload bounds.
func (w *Workload) Size(t *Tensor) int64 {
	full := make(map[string]int, len(w.Dims))
	for _, d := range w.Dims {
		full[d.Name] = d.Bound
	}
	return t.TileVolume(full)
}

// TotalFootprint returns the summed element count of all tensors.
func (w *Workload) TotalFootprint() int64 {
	var total int64
	for i := range w.Tensors {
		total += w.Size(&w.Tensors[i])
	}
	return total
}

// String renders the workload as a loop nest with a body statement, in the
// style of the paper's Fig. 1.
func (w *Workload) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s\n", w.Name)
	indent := ""
	for _, d := range w.Dims {
		fmt.Fprintf(&b, "%sfor %s in [0:%d)\n", indent, strings.ToLower(d.Name), d.Bound)
		indent += "  "
	}
	out := w.Output()
	var ins []string
	for i := range w.Tensors {
		if w.Tensors[i].Role != Output {
			ins = append(ins, tensorRef(&w.Tensors[i]))
		}
	}
	fmt.Fprintf(&b, "%s%s += %s\n", indent, tensorRef(out), strings.Join(ins, " * "))
	return b.String()
}

func tensorRef(t *Tensor) string {
	var axes []string
	for _, c := range t.Coords {
		var terms []string
		for _, term := range c.Terms {
			if term.Stride == 1 {
				terms = append(terms, strings.ToLower(term.Dim))
			} else {
				terms = append(terms, fmt.Sprintf("%d*%s", term.Stride, strings.ToLower(term.Dim)))
			}
		}
		axes = append(axes, strings.Join(terms, "+"))
	}
	return fmt.Sprintf("%s[%s]", t.Name, strings.Join(axes, "]["))
}

// Scale returns a copy of w with the named dimensions' bounds replaced.
// Unknown names are rejected. Used to build padded-workload variants.
func (w *Workload) Scale(newBounds map[string]int) (*Workload, error) {
	dims := make([]Dim, len(w.Dims))
	copy(dims, w.Dims)
	for i := range dims {
		if nb, ok := newBounds[dims[i].Name]; ok {
			dims[i].Bound = nb
		}
	}
	for name := range newBounds {
		if _, ok := w.bounds[name]; !ok {
			return nil, fmt.Errorf("workload %q: Scale of unknown dim %q", w.Name, name)
		}
	}
	tensors := make([]Tensor, len(w.Tensors))
	copy(tensors, w.Tensors)
	return New(w.Name+"/scaled", dims, tensors)
}

// SortedDimNames returns dimension names sorted lexicographically; useful for
// deterministic iteration in tests and hashing.
func (w *Workload) SortedDimNames() []string {
	names := w.DimNames()
	sort.Strings(names)
	return names
}
