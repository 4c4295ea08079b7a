package dist

import (
	"fmt"
	"strings"
)

// ArrayMap is the complete mapping of one array onto a processor grid:
// one DimDist per array dimension, or full replication. It is the result
// of resolving ALIGN/DISTRIBUTE chains for the array.
type ArrayMap struct {
	Name       string
	ElemBytes  int
	Grid       *Grid
	Dims       []DimDist
	Replicated bool // no distributed dimension: a full copy on every processor
}

// NewReplicated builds the default mapping for arrays without directives
// (the implementation-dependent default of the paper's compiler:
// replication).
func NewReplicated(name string, elemBytes int, grid *Grid, bounds [][2]int) *ArrayMap {
	m := &ArrayMap{Name: name, ElemBytes: elemBytes, Grid: grid, Replicated: true}
	for _, b := range bounds {
		m.Dims = append(m.Dims, DimDist{Kind: Collapsed, Lo: b[0], Hi: b[1], ProcDim: -1, NProc: 1})
	}
	return m
}

// Validate checks internal consistency of the mapping.
func (m *ArrayMap) Validate() error {
	if m.Grid == nil {
		return fmt.Errorf("dist: array %s has no processor grid", m.Name)
	}
	used := make(map[int]bool)
	distributed := false
	for i, d := range m.Dims {
		if d.Hi < d.Lo {
			return fmt.Errorf("dist: array %s dim %d has empty bounds [%d,%d]", m.Name, i+1, d.Lo, d.Hi)
		}
		switch d.Kind {
		case Collapsed:
			if d.ProcDim != -1 {
				return fmt.Errorf("dist: array %s dim %d collapsed but mapped to grid dim %d", m.Name, i+1, d.ProcDim)
			}
		case Block, Cyclic:
			distributed = true
			if d.Kind == Block && d.Blk > 0 && d.Blk*d.NProc < d.Extent() {
				return fmt.Errorf("dist: array %s dim %d: BLOCK(%d) over %d processors cannot hold %d elements",
					m.Name, i+1, d.Blk, d.NProc, d.Extent())
			}
			if d.ProcDim < 0 || d.ProcDim >= len(m.Grid.Shape) {
				return fmt.Errorf("dist: array %s dim %d maps to invalid grid dim %d", m.Name, i+1, d.ProcDim)
			}
			if used[d.ProcDim] {
				return fmt.Errorf("dist: array %s maps two dimensions to grid dim %d", m.Name, d.ProcDim)
			}
			used[d.ProcDim] = true
			if d.NProc != m.Grid.Shape[d.ProcDim] {
				return fmt.Errorf("dist: array %s dim %d NProc %d != grid extent %d", m.Name, i+1, d.NProc, m.Grid.Shape[d.ProcDim])
			}
		}
	}
	if distributed && m.Replicated {
		return fmt.Errorf("dist: array %s marked replicated but has distributed dimensions", m.Name)
	}
	return nil
}

// Rank returns the number of array dimensions.
func (m *ArrayMap) Rank() int { return len(m.Dims) }

// GlobalCount returns the total number of array elements.
func (m *ArrayMap) GlobalCount() int {
	n := 1
	for _, d := range m.Dims {
		n *= d.Extent()
	}
	return n
}

// OwnerRanks returns the linear ranks of all processors owning the element
// at the given global index vector. For a distributed array this is a
// single rank repeated over unused grid dimensions; for a replicated array
// it is every processor.
func (m *ArrayMap) OwnerRanks(idx []int) []int {
	if m.Replicated {
		all := make([]int, m.Grid.Size())
		for i := range all {
			all[i] = i
		}
		return all
	}
	// Fix the coordinates of grid dimensions used by distributed array
	// dimensions; enumerate the rest.
	fixed := make(map[int]int)
	for i, d := range m.Dims {
		if d.Kind != Collapsed {
			fixed[d.ProcDim] = d.Owner(idx[i])
		}
	}
	var ranks []int
	coords := make([]int, len(m.Grid.Shape))
	var walk func(dim int)
	walk = func(dim int) {
		if dim == len(coords) {
			ranks = append(ranks, m.Grid.Rank(coords))
			return
		}
		if c, ok := fixed[dim]; ok {
			coords[dim] = c
			walk(dim + 1)
			return
		}
		for c := 0; c < m.Grid.Shape[dim]; c++ {
			coords[dim] = c
			walk(dim + 1)
		}
	}
	walk(0)
	return ranks
}

// PrimaryOwner returns the lowest-rank owner of the element (used when a
// unique computing processor is needed for owner-computes).
func (m *ArrayMap) PrimaryOwner(idx []int) int { return m.OwnerRanks(idx)[0] }

// Owns reports whether processor rank owns (a copy of) the given element.
func (m *ArrayMap) Owns(rank int, idx []int) bool {
	if m.Replicated {
		return true
	}
	coords := m.Grid.Coords(rank)
	for i, d := range m.Dims {
		if d.Kind == Collapsed {
			continue
		}
		if coords[d.ProcDim] != d.Owner(idx[i]) {
			return false
		}
	}
	return true
}

// LocalShape returns the per-dimension local extents on processor rank.
func (m *ArrayMap) LocalShape(rank int) []int {
	coords := m.Grid.Coords(rank)
	shape := make([]int, len(m.Dims))
	for i, d := range m.Dims {
		if d.Kind == Collapsed {
			shape[i] = d.Extent()
		} else {
			shape[i] = d.LocalSize(coords[d.ProcDim])
		}
	}
	return shape
}

// LocalCount returns the number of elements stored on processor rank.
func (m *ArrayMap) LocalCount(rank int) int {
	n := 1
	for _, e := range m.LocalShape(rank) {
		n *= e
	}
	return n
}

// MaxLocalCount returns the element count on the most loaded processor.
func (m *ArrayMap) MaxLocalCount() int {
	n := 1
	for _, d := range m.Dims {
		n *= d.MaxLocalSize()
	}
	return n
}

// LocalBytes returns the per-processor memory footprint in bytes on the
// most loaded processor.
func (m *ArrayMap) LocalBytes() int { return m.MaxLocalCount() * m.ElemBytes }

// DistributedDims returns the indices of array dimensions that are spread
// over processors.
func (m *ArrayMap) DistributedDims() []int {
	var out []int
	for i, d := range m.Dims {
		if d.Kind != Collapsed {
			out = append(out, i)
		}
	}
	return out
}

// SameMapping reports whether two arrays have element-wise identical
// mappings (same grid, same per-dimension distribution and bounds), which
// makes element-wise aligned operations communication-free.
func (m *ArrayMap) SameMapping(o *ArrayMap) bool {
	if m.Grid != o.Grid || len(m.Dims) != len(o.Dims) || m.Replicated != o.Replicated {
		return false
	}
	for i := range m.Dims {
		a, b := m.Dims[i], o.Dims[i]
		if a.Kind != b.Kind || a.Lo != b.Lo || a.Hi != b.Hi || a.ProcDim != b.ProcDim || a.NProc != b.NProc || a.BlockSize() != b.BlockSize() {
			return false
		}
	}
	return true
}

// String renders the mapping like "A(BLOCK/p0,*) onto P(2,2)".
func (m *ArrayMap) String() string {
	if m.Replicated {
		return fmt.Sprintf("%s(replicated)", m.Name)
	}
	parts := make([]string, len(m.Dims))
	for i, d := range m.Dims {
		parts[i] = d.String()
	}
	return fmt.Sprintf("%s(%s) onto %s", m.Name, strings.Join(parts, ","), m.Grid)
}

// AsciiDecomposition renders a 2-D decomposition picture like Figure 3 of
// the paper: which processor owns each tile of a (small) 2-D array.
// For arrays of other ranks it returns the String() form.
func (m *ArrayMap) AsciiDecomposition(cells int) string {
	if len(m.Dims) != 2 {
		return m.String()
	}
	if cells <= 0 {
		cells = 8
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", m.String())
	for r := 0; r < cells; r++ {
		for c := 0; c < cells; c++ {
			gi := m.Dims[0].Lo + r*m.Dims[0].Extent()/cells
			gj := m.Dims[1].Lo + c*m.Dims[1].Extent()/cells
			owner := m.PrimaryOwner([]int{gi, gj})
			fmt.Fprintf(&b, "%2d ", owner)
		}
		b.WriteString("\n")
	}
	return b.String()
}
