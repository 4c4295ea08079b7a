// Package hir defines the loosely synchronous SPMD node program produced
// by compilation phase 1 (§4.1 step 5 of the paper): alternating phases of
// local computation and collective communication, with owner-computes
// partitioned parallel loops.
//
// Array references in the IR use global indices; the ownership tests and
// global→local translations implied by them are part of the runtime model
// (their cost is charged as the sequential "index translation / message
// packing" overhead of the paper's Seq AAUs).
package hir

import (
	"fmt"
	"strings"

	"hpfperf/internal/analysis/dep"
	"hpfperf/internal/ast"
	"hpfperf/internal/sem"
)

// Op is an HIR operator.
type Op int

const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpPow
	OpNeg
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
)

var opNames = [...]string{"+", "-", "*", "/", "**", "neg", "==", "/=", "<", "<=", ">", ">=", ".AND.", ".OR.", ".NOT."}

func (o Op) String() string { return opNames[o] }

// IsCompare reports whether the operator is a comparison.
func (o Op) IsCompare() bool { return o >= OpEq && o <= OpGe }

// ---------------------------------------------------------------------------
// Expressions

// Expr is an HIR expression node. Every node carries its static type.
type Expr interface {
	Type() ast.BaseType
	String() string
}

// Const is a literal constant.
type Const struct {
	Val sem.Value
}

func (c *Const) Type() ast.BaseType { return c.Val.Type }
func (c *Const) String() string     { return c.Val.String() }

// RefKind distinguishes scalar storage classes.
type RefKind int

const (
	// Replicated scalars exist identically on every processor (ordinary
	// program scalars; loosely synchronous consistency maintained by the
	// compiler).
	Replicated RefKind = iota
	// Private scalars are per-processor compiler temporaries (reduction
	// partials, loop indices).
	Private
)

// Ref reads a scalar variable.
type Ref struct {
	Name string
	Kind RefKind
	Typ  ast.BaseType
}

func (r *Ref) Type() ast.BaseType { return r.Typ }
func (r *Ref) String() string     { return r.Name }

// Elem reads one array element at a global index vector. Shadow reads hit
// the processor's replicated shadow copy (produced by AllGather) instead
// of the distributed storage + halo.
type Elem struct {
	Array  string
	Subs   []Expr
	Shadow bool
	Typ    ast.BaseType
}

func (e *Elem) Type() ast.BaseType { return e.Typ }
func (e *Elem) String() string {
	subs := make([]string, len(e.Subs))
	for i, s := range e.Subs {
		subs[i] = s.String()
	}
	tag := ""
	if e.Shadow {
		tag = "$"
	}
	return fmt.Sprintf("%s%s(%s)", tag, e.Array, strings.Join(subs, ","))
}

// Bin is a binary operation.
type Bin struct {
	Op   Op
	X, Y Expr
	Typ  ast.BaseType
}

func (b *Bin) Type() ast.BaseType { return b.Typ }
func (b *Bin) String() string     { return fmt.Sprintf("(%s %s %s)", b.X, b.Op, b.Y) }

// Un is a unary operation (negation or .NOT.).
type Un struct {
	Op  Op
	X   Expr
	Typ ast.BaseType
}

func (u *Un) Type() ast.BaseType { return u.Typ }
func (u *Un) String() string     { return fmt.Sprintf("%s(%s)", u.Op, u.X) }

// Intr is an elemental intrinsic applied to scalar arguments.
type Intr struct {
	Name string
	Args []Expr
	Typ  ast.BaseType
}

func (c *Intr) Type() ast.BaseType { return c.Typ }
func (c *Intr) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(args, ","))
}

// ---------------------------------------------------------------------------
// Operation counting (used by both the interpretation engine and the
// machine simulator's processing model)

// OpCount tallies the primitive operations of one expression/statement
// execution.
type OpCount struct {
	FAdd, FMul, FDiv int // floating add/sub, multiply, divide
	IntOp            int // integer arithmetic (including subscripts)
	Cmp              int // comparisons
	Logical          int // logical connectives
	Load, Store      int // memory element accesses
	Elems            int // array element references (index translations)
	ShadowLoad       int // reads of gathered shadow copies (irregular access)
	Intrinsics       map[string]int
	Pow              int
}

// Add accumulates another count (scaled by n) into c.
func (c *OpCount) Add(o OpCount, n int) {
	c.FAdd += o.FAdd * n
	c.FMul += o.FMul * n
	c.FDiv += o.FDiv * n
	c.IntOp += o.IntOp * n
	c.Cmp += o.Cmp * n
	c.Logical += o.Logical * n
	c.Load += o.Load * n
	c.Store += o.Store * n
	c.Elems += o.Elems * n
	c.ShadowLoad += o.ShadowLoad * n
	c.Pow += o.Pow * n
	for k, v := range o.Intrinsics {
		if c.Intrinsics == nil {
			c.Intrinsics = make(map[string]int)
		}
		c.Intrinsics[k] += v * n
	}
}

// CountExpr computes the operation tally of evaluating e once.
func CountExpr(e Expr) OpCount {
	var c OpCount
	countInto(e, &c)
	return c
}

func countInto(e Expr, c *OpCount) {
	switch x := e.(type) {
	case *Const:
	case *Ref:
		c.Load++
	case *Elem:
		c.Load++
		c.Elems++
		if x.Shadow {
			c.ShadowLoad++
		}
		// Subscript arithmetic: address computation per dimension.
		for _, s := range x.Subs {
			c.IntOp++
			countInto(s, c)
		}
	case *Bin:
		countInto(x.X, c)
		countInto(x.Y, c)
		isFloat := x.X.Type() != ast.TInteger || x.Y.Type() != ast.TInteger
		switch {
		case x.Op == OpAdd || x.Op == OpSub:
			if isFloat {
				c.FAdd++
			} else {
				c.IntOp++
			}
		case x.Op == OpMul:
			if isFloat {
				c.FMul++
			} else {
				c.IntOp++
			}
		case x.Op == OpDiv:
			if isFloat {
				c.FDiv++
			} else {
				c.IntOp++
			}
		case x.Op == OpPow:
			c.Pow++
		case x.Op.IsCompare():
			c.Cmp++
		case x.Op == OpAnd || x.Op == OpOr:
			c.Logical++
		}
	case *Un:
		countInto(x.X, c)
		if x.Op == OpNot {
			c.Logical++
		} else if x.Type() == ast.TInteger {
			c.IntOp++
		} else {
			c.FAdd++
		}
	case *Intr:
		for _, a := range x.Args {
			countInto(a, c)
		}
		if c.Intrinsics == nil {
			c.Intrinsics = make(map[string]int)
		}
		c.Intrinsics[x.Name]++
	}
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is an HIR statement of the node program.
type Stmt interface {
	Line() int // source line for per-line performance queries
	stmt()
}

// LValue is an assignment destination.
type LValue interface {
	lvalue()
	String() string
}

// ScalarLV assigns a scalar (replicated or private per Kind).
type ScalarLV struct {
	Name string
	Kind RefKind
	Typ  ast.BaseType
}

func (*ScalarLV) lvalue()          {}
func (l *ScalarLV) String() string { return l.Name }

// ElemLV assigns one array element at a global index vector.
type ElemLV struct {
	Array string
	Subs  []Expr
	Typ   ast.BaseType
}

func (*ElemLV) lvalue() {}
func (l *ElemLV) String() string {
	subs := make([]string, len(l.Subs))
	for i, s := range l.Subs {
		subs[i] = s.String()
	}
	return fmt.Sprintf("%s(%s)", l.Array, strings.Join(subs, ","))
}

// Assign executes lhs = rhs. When Guard is true and the LHS is a
// distributed array element, only its owner executes the store (used for
// element assignments outside parallel loops). Inside parallel loops the
// partitioning already restricts execution to owners.
type Assign struct {
	Lhs     LValue
	Rhs     Expr
	Guard   bool
	SrcLine int
	// Cost is the precomputed operation tally of one execution (including
	// the store).
	Cost OpCount
}

// ParSpec partitions a parallel loop dimension by ownership: iteration i
// executes on processors owning element i+Offset of dimension Dim of Array.
type ParSpec struct {
	Array  string
	Dim    int
	Offset int
}

// Loop is a counted loop. Par == nil means a sequential loop executed
// redundantly by every processor; Par != nil means an owner-computes
// partitioned (distributed) loop produced by forall sequentialization.
type Loop struct {
	Var          string
	Lo, Hi, Step Expr
	Body         []Stmt
	Par          *ParSpec
	SrcLine      int
	BoundCost    OpCount // evaluating lo/hi/step once
	// Label names the originating construct for profiles ("FORALL",
	// "DO", "ARRAY-ASSIGN", "WHERE").
	Label string
}

// While is a DO WHILE loop (always sequential/replicated).
type While struct {
	Cond    Expr
	Body    []Stmt
	SrcLine int
	Cost    OpCount // per-evaluation cost of the condition
}

// If is a conditional; executed by all processors reaching it.
type If struct {
	Cond    Expr
	Then    []Stmt
	Else    []Stmt
	SrcLine int
	Cost    OpCount // cost of evaluating the condition once
}

// ReduceOp is a global reduction operator.
type ReduceOp int

const (
	RSum ReduceOp = iota
	RProd
	RMax
	RMin
	RMaxLoc
	RMinLoc
)

var reduceNames = [...]string{"SUM", "PRODUCT", "MAX", "MIN", "MAXLOC", "MINLOC"}

func (r ReduceOp) String() string { return reduceNames[r] }

// Reduce combines per-processor private partials Src into the replicated
// scalar Dst across all processors (the global sum / product / maxloc
// collective operations of the paper's intrinsic library). For RMaxLoc and
// RMinLoc, LocSrc/LocDst carry the index part.
type Reduce struct {
	Op             ReduceOp
	Dst, Src       string
	LocDst, LocSrc string
	Typ            ast.BaseType
	SrcLine        int
}

// Shift performs the halo exchange making A(... i+Offset ...) readable for
// every locally owned i along distributed dimension Dim (the compiler's
// overlap_shift / cshift communication).
type Shift struct {
	Array   string
	Dim     int
	Offset  int
	SrcLine int
}

// AllGather refreshes the replicated shadow copy of a distributed array on
// every processor (the fallback communication for unrecognized access
// patterns; also used by reductions over expressions of whole arrays when
// they cannot be localized).
type AllGather struct {
	Array   string
	SrcLine int
}

// CShift implements the parallel intrinsic CSHIFT: Dst becomes Src
// circularly shifted by Shift along dimension Dim. Dst has the same
// mapping as Src. The shift amount is a replicated scalar expression.
type CShift struct {
	Dst, Src string
	Dim      int
	Shift    Expr
	SrcLine  int
}

// EOShift implements EOSHIFT/TSHIFT: an end-off shift filling vacated
// elements with Boundary (a replicated scalar expression; nil means zero).
type EOShift struct {
	Dst, Src string
	Dim      int
	Shift    Expr
	Boundary Expr
	SrcLine  int
}

// FetchElem broadcasts one element of a distributed array from its owner
// to all processors, storing it into replicated scalar Dst.
type FetchElem struct {
	Array   string
	Subs    []Expr
	Dst     string
	Typ     ast.BaseType
	SrcLine int
	Cost    OpCount
}

// Print models list-directed output: the values are sent to the host (SRM)
// from processor 0.
type Print struct {
	Args    []Expr
	SrcLine int
	Cost    OpCount
}

func (s *Assign) Line() int    { return s.SrcLine }
func (s *Loop) Line() int      { return s.SrcLine }
func (s *While) Line() int     { return s.SrcLine }
func (s *If) Line() int        { return s.SrcLine }
func (s *Reduce) Line() int    { return s.SrcLine }
func (s *Shift) Line() int     { return s.SrcLine }
func (s *AllGather) Line() int { return s.SrcLine }
func (s *CShift) Line() int    { return s.SrcLine }
func (s *EOShift) Line() int   { return s.SrcLine }
func (s *FetchElem) Line() int { return s.SrcLine }
func (s *Print) Line() int     { return s.SrcLine }

func (*Assign) stmt()    {}
func (*Loop) stmt()      {}
func (*While) stmt()     {}
func (*If) stmt()        {}
func (*Reduce) stmt()    {}
func (*Shift) stmt()     {}
func (*AllGather) stmt() {}
func (*CShift) stmt()    {}
func (*EOShift) stmt()   {}
func (*FetchElem) stmt() {}
func (*Print) stmt()     {}

// ---------------------------------------------------------------------------
// Program

// TempArray is a compiler-introduced array (forall double buffers, shadow
// copies) with the same mapping as its origin array.
type TempArray struct {
	Name   string
	Origin string // array whose mapping/bounds it clones
	Typ    ast.BaseType
}

// Independent is the compiler's decision on one !HPF$ INDEPENDENT
// annotation: the dependence verifier's verdict and evidence, and
// whether the lowering used a proven verdict (a DO became a partitioned
// FORALL nest, or a FORALL assignment skipped an evaluate-then-assign
// copy its reads would otherwise have forced).
type Independent struct {
	Line     int
	Forall   bool // the annotated loop is a FORALL, not a DO
	Verdict  dep.Verdict
	Evidence []dep.Evidence
	Honored  bool
}

// Program is the compiled SPMD node program.
type Program struct {
	Name string
	Info *sem.Info
	Body []Stmt
	// Temps lists compiler-introduced arrays; their dist maps are in
	// Info.Symbols (registered by the compiler).
	Temps []TempArray
	// PrivScalars lists compiler-introduced private scalars.
	PrivScalars []string
	// PrivTypes records the type of each private scalar.
	PrivTypes map[string]ast.BaseType
	// Independent lists the INDEPENDENT annotations in source order.
	Independent []Independent
}

// Dump renders the node program for debugging.
func (p *Program) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SPMD PROGRAM %s on %s\n", p.Name, p.Info.GridString())
	dumpStmts(&b, p.Body, 1)
	return b.String()
}

func dumpStmts(b *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range stmts {
		switch x := s.(type) {
		case *Assign:
			guard := ""
			if x.Guard {
				guard = " [owner]"
			}
			fmt.Fprintf(b, "%s%s = %s%s\n", ind, x.Lhs, x.Rhs, guard)
		case *Loop:
			par := "seq"
			if x.Par != nil {
				par = fmt.Sprintf("par %s.dim%d%+d", x.Par.Array, x.Par.Dim, x.Par.Offset)
			}
			fmt.Fprintf(b, "%sLOOP %s = %s, %s, %s [%s %s]\n", ind, x.Var, x.Lo, x.Hi, x.Step, x.Label, par)
			dumpStmts(b, x.Body, depth+1)
		case *While:
			fmt.Fprintf(b, "%sWHILE %s\n", ind, x.Cond)
			dumpStmts(b, x.Body, depth+1)
		case *If:
			fmt.Fprintf(b, "%sIF %s\n", ind, x.Cond)
			dumpStmts(b, x.Then, depth+1)
			if len(x.Else) > 0 {
				fmt.Fprintf(b, "%sELSE\n", ind)
				dumpStmts(b, x.Else, depth+1)
			}
		case *Reduce:
			fmt.Fprintf(b, "%sREDUCE %s %s <- %s\n", ind, x.Op, x.Dst, x.Src)
		case *Shift:
			fmt.Fprintf(b, "%sSHIFT %s dim %d offset %+d\n", ind, x.Array, x.Dim, x.Offset)
		case *AllGather:
			fmt.Fprintf(b, "%sALLGATHER %s\n", ind, x.Array)
		case *CShift:
			fmt.Fprintf(b, "%sCSHIFT %s <- %s dim %d by %s\n", ind, x.Dst, x.Src, x.Dim, x.Shift)
		case *EOShift:
			fmt.Fprintf(b, "%sEOSHIFT %s <- %s dim %d by %s\n", ind, x.Dst, x.Src, x.Dim, x.Shift)
		case *FetchElem:
			fmt.Fprintf(b, "%sFETCH %s <- %s(...)\n", ind, x.Dst, x.Array)
		case *Print:
			fmt.Fprintf(b, "%sPRINT (%d items)\n", ind, len(x.Args))
		}
	}
}
