// Package exec executes a compiled SPMD node program (package hir) on the
// simulated iPSC/860 machine (package ipsc), producing both functional
// results and "measured" execution times.
//
// The execution model is trace-driven: the program data is held once
// (loosely synchronous SPMD execution keeps replicated copies identical,
// and distributed arrays have a single authoritative owner per element),
// while time is accounted per node through the machine's cost models —
// computation is charged to the owners of each partitioned iteration,
// communication statements advance the participating nodes' clocks
// through the network model.
package exec

import (
	"fmt"

	"hpfperf/internal/ast"
	"hpfperf/internal/sem"
)

// val is a runtime scalar value: a float, an integer, or a logical
// held in i as 0 or 1.
type val struct {
	kind valKind
	i    int64
	f    float64
}

type valKind uint8

const (
	kFloat valKind = iota
	kInt
	kBool
)

func intV(i int64) val     { return val{kind: kInt, i: i} }
func floatV(f float64) val { return val{f: f} }
func boolV(b bool) val {
	if b {
		return val{kind: kBool, i: 1}
	}
	return val{kind: kBool}
}

func (v val) isInt() bool { return v.kind == kInt }

func (v val) asF() float64 {
	switch v.kind {
	case kInt, kBool:
		return float64(v.i)
	}
	return v.f
}

func (v val) asI() int64 {
	if v.kind == kFloat {
		return int64(v.f)
	}
	return v.i
}

func (v val) asB() bool {
	if v.kind == kFloat {
		return v.f != 0
	}
	return v.i != 0
}

func (v val) String() string {
	switch v.kind {
	case kBool:
		if v.i != 0 {
			return "T"
		}
		return "F"
	case kInt:
		return fmt.Sprint(v.i)
	default:
		return fmt.Sprintf("%g", v.f)
	}
}

func fromSem(s sem.Value) val {
	switch s.Type {
	case ast.TInteger:
		return intV(s.I)
	case ast.TLogical:
		return boolV(s.B)
	default:
		return floatV(s.R)
	}
}

// convertTo coerces a value to a declared type (Fortran assignment
// conversion: reals truncate to integers).
func convertTo(v val, t ast.BaseType) val {
	switch t {
	case ast.TInteger:
		return intV(v.asI())
	case ast.TLogical:
		return boolV(v.asB())
	default:
		return floatV(v.asF())
	}
}

// array is the global storage of one program array, Fortran column-major
// (first subscript varies fastest).
type array struct {
	name    string
	typ     ast.BaseType
	bounds  [][2]int
	strides []int
	data    []float64
}

func newArray(name string, typ ast.BaseType, bounds [][2]int) *array {
	a := &array{name: name, typ: typ, bounds: bounds}
	a.strides = make([]int, len(bounds))
	size := 1
	for d, b := range bounds {
		a.strides[d] = size
		size *= b[1] - b[0] + 1
	}
	a.data = make([]float64, size)
	return a
}

// offset computes the linear offset of a global index vector, with bounds
// checking.
func (a *array) offset(idx []int) (int, error) {
	off := 0
	for d, g := range idx {
		b := a.bounds[d]
		if g < b[0] || g > b[1] {
			return 0, fmt.Errorf("subscript %d of %s is %d, outside [%d,%d]", d+1, a.name, g, b[0], b[1])
		}
		off += (g - b[0]) * a.strides[d]
	}
	return off, nil
}

// load reads the element at linear offset off as a value of the
// array's type.
func (a *array) load(off int) val {
	f := a.data[off]
	switch a.typ {
	case ast.TInteger:
		return intV(int64(f))
	case ast.TLogical:
		return boolV(f != 0)
	default:
		return floatV(f)
	}
}

// store converts v to the array's type and writes it at linear offset
// off.
func (a *array) store(off int, v val) {
	switch a.typ {
	case ast.TInteger:
		a.data[off] = float64(v.asI())
	case ast.TLogical:
		if v.asB() {
			a.data[off] = 1
		} else {
			a.data[off] = 0
		}
	default:
		a.data[off] = v.asF()
	}
}

// elems returns the total element count.
func (a *array) elems() int { return len(a.data) }
