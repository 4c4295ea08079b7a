package hir

import (
	"reflect"
	"testing"

	"hpfperf/internal/ast"
)

func scalarAssign(name string) *Assign {
	return &Assign{Lhs: &ScalarLV{Name: name, Typ: ast.TReal}, Rhs: realC(1)}
}

func TestAssignedScalars(t *testing.T) {
	elemAssign := &Assign{Lhs: &ElemLV{Array: "A", Subs: []Expr{intC(1)}, Typ: ast.TReal}, Rhs: realC(0)}
	cond := &Ref{Name: "B", Typ: ast.TLogical}
	for _, c := range []struct {
		name string
		body []Stmt
		want []string
	}{
		{"empty", nil, nil},
		{"scalar assignment", []Stmt{scalarAssign("X")}, []string{"X"}},
		{"element assignment clobbers no scalar", []Stmt{elemAssign}, nil},
		{"loop index before its body", []Stmt{
			&Loop{Var: "I", Lo: intC(1), Hi: intC(4), Step: intC(1), Body: []Stmt{scalarAssign("X")}},
		}, []string{"I", "X"}},
		{"while body", []Stmt{&While{Cond: cond, Body: []Stmt{scalarAssign("W")}}}, []string{"W"}},
		{"then before else", []Stmt{
			&If{Cond: cond, Then: []Stmt{scalarAssign("T")}, Else: []Stmt{scalarAssign("E")}},
		}, []string{"T", "E"}},
		{"reduction result and location", []Stmt{
			&Reduce{Op: RMaxLoc, Dst: "M", Src: "$P", LocDst: "L", LocSrc: "$Q"},
		}, []string{"M", "L"}},
		{"reduction without location", []Stmt{&Reduce{Op: RSum, Dst: "S", Src: "$P"}}, []string{"S"}},
		{"fetched element", []Stmt{&FetchElem{Array: "A", Subs: []Expr{intC(1)}, Dst: "F"}}, []string{"F"}},
		{"communication and output clobber nothing", []Stmt{
			&Shift{Array: "A", Offset: 1},
			&AllGather{Array: "A"},
			&CShift{Dst: "B", Src: "A", Shift: intC(1)},
			&EOShift{Dst: "B", Src: "A", Shift: intC(1)},
			&Print{Args: []Expr{&Ref{Name: "X", Typ: ast.TReal}}},
		}, nil},
		{"nested constructs in first-assignment order", []Stmt{
			&While{Cond: cond, Body: []Stmt{
				&If{Cond: cond, Then: []Stmt{
					&Loop{Var: "J", Lo: intC(1), Hi: intC(2), Step: intC(1), Body: []Stmt{scalarAssign("Z")}},
				}, Else: []Stmt{scalarAssign("Y")}},
			}},
			scalarAssign("A"),
		}, []string{"J", "Z", "Y", "A"}},
		{"each name once", []Stmt{
			scalarAssign("X"),
			&Loop{Var: "X", Lo: intC(1), Hi: intC(2), Step: intC(1), Body: []Stmt{scalarAssign("Y"), scalarAssign("X")}},
			&FetchElem{Array: "A", Subs: []Expr{intC(1)}, Dst: "Y"},
		}, []string{"X", "Y"}},
		{"empty names skipped", []Stmt{
			&Reduce{Op: RSum, Dst: "", Src: "$P"},
			&FetchElem{Array: "A", Subs: []Expr{intC(1)}, Dst: ""},
		}, nil},
	} {
		if got := AssignedScalars(c.body); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: AssignedScalars = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestElemental(t *testing.T) {
	replicated := &Ref{Name: "N", Kind: Replicated, Typ: ast.TInteger}
	private := &Ref{Name: "$I", Kind: Private, Typ: ast.TInteger}
	elem := &Elem{Array: "A", Subs: []Expr{replicated}, Typ: ast.TReal}
	for _, c := range []struct {
		name string
		e    Expr
		want bool
	}{
		{"constant", intC(1), false},
		{"replicated scalar", replicated, false},
		{"private scalar", private, true},
		{"array element", elem, true},
		{"binary over replicated scalars", &Bin{Op: OpGt, X: replicated, Y: intC(0), Typ: ast.TLogical}, false},
		{"binary with an element on the right", &Bin{Op: OpGt, X: replicated, Y: elem, Typ: ast.TLogical}, true},
		{"unary over a private scalar", &Un{Op: OpNeg, X: private, Typ: ast.TInteger}, true},
		{"unary over a replicated scalar", &Un{Op: OpNeg, X: replicated, Typ: ast.TInteger}, false},
		{"intrinsic with an element argument", &Intr{Name: "MAX", Args: []Expr{replicated, elem}, Typ: ast.TReal}, true},
		{"intrinsic over replicated arguments", &Intr{Name: "MAX", Args: []Expr{replicated, intC(2)}, Typ: ast.TInteger}, false},
		{"nested", &Un{Op: OpNot, X: &Bin{Op: OpAnd,
			X:   &Bin{Op: OpGt, X: replicated, Y: intC(0), Typ: ast.TLogical},
			Y:   &Bin{Op: OpLt, X: &Intr{Name: "ABS", Args: []Expr{private}, Typ: ast.TInteger}, Y: intC(3), Typ: ast.TLogical},
			Typ: ast.TLogical}, Typ: ast.TLogical}, true},
	} {
		if got := Elemental(c.e); got != c.want {
			t.Errorf("%s: Elemental(%s) = %t, want %t", c.name, c.e, got, c.want)
		}
	}
}

func TestTripCount(t *testing.T) {
	for _, c := range []struct{ lo, hi, step, want int }{
		{1, 10, 1, 10},
		{1, 10, 3, 4},
		{1, 9, 4, 3},
		{5, 5, 1, 1},
		{5, 5, -1, 1},
		{10, 1, -1, 10},
		{10, 1, -4, 3},
		{-3, 3, 2, 4},
		{3, 1, 1, 0},
		{1, 3, -1, 0},
	} {
		if got := TripCount(c.lo, c.hi, c.step); got != c.want {
			t.Errorf("TripCount(%d, %d, %d) = %d, want %d", c.lo, c.hi, c.step, got, c.want)
		}
	}
}
