package parser

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"hpfperf/internal/ast"
	"hpfperf/internal/token"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return prog
}

func TestMinimalProgram(t *testing.T) {
	prog := mustParse(t, "PROGRAM hello\nX = 1\nEND")
	if prog.Name != "HELLO" {
		t.Errorf("name = %q, want HELLO", prog.Name)
	}
	if len(prog.Body) != 1 {
		t.Fatalf("body len = %d, want 1", len(prog.Body))
	}
	if _, ok := prog.Body[0].(*ast.AssignStmt); !ok {
		t.Errorf("stmt = %T, want AssignStmt", prog.Body[0])
	}
}

func TestEndProgramName(t *testing.T) {
	mustParse(t, "PROGRAM p\nX = 1\nEND PROGRAM p")
	mustParse(t, "PROGRAM p\nX = 1\nEND PROGRAM")
}

func TestProgramHeaderOptional(t *testing.T) {
	prog := mustParse(t, "X = 1\nEND")
	if prog.Name != "MAIN" {
		t.Errorf("name = %q, want MAIN", prog.Name)
	}
}

func TestDeclarations(t *testing.T) {
	src := `PROGRAM d
INTEGER I, J
REAL A(100), B(0:9, 10)
DOUBLE PRECISION X
LOGICAL FLAG
PARAMETER (N = 256, PI = 3.14159)
INTEGER, PARAMETER :: M = 4
IMPLICIT NONE
I = 1
END`
	prog := mustParse(t, src)
	if len(prog.Decls) != 7 {
		t.Fatalf("decls = %d, want 7", len(prog.Decls))
	}
	td := prog.Decls[1].(*ast.TypeDecl)
	if td.Type != ast.TReal {
		t.Errorf("type = %v, want REAL", td.Type)
	}
	if len(td.Entities) != 2 {
		t.Fatalf("entities = %d", len(td.Entities))
	}
	if len(td.Entities[1].Dims) != 2 {
		t.Errorf("B dims = %d, want 2", len(td.Entities[1].Dims))
	}
	if td.Entities[1].Dims[0].Lo == nil {
		t.Error("B first dim should have explicit lower bound")
	}
	pd := prog.Decls[4].(*ast.ParameterDecl)
	if len(pd.Names) != 2 || pd.Names[0] != "N" || pd.Names[1] != "PI" {
		t.Errorf("parameter names = %v", pd.Names)
	}
	pd2 := prog.Decls[5].(*ast.ParameterDecl)
	if len(pd2.Names) != 1 || pd2.Names[0] != "M" {
		t.Errorf("attr parameter names = %v", pd2.Names)
	}
}

func TestDirectives(t *testing.T) {
	src := `PROGRAM d
REAL A(256,256)
!HPF$ PROCESSORS P(2,2)
!HPF$ TEMPLATE T(256,256)
!HPF$ ALIGN A(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,BLOCK) ONTO P
A(1,1) = 0.0
END`
	prog := mustParse(t, src)
	if len(prog.Directives) != 4 {
		t.Fatalf("directives = %d, want 4", len(prog.Directives))
	}
	pr := prog.Directives[0].(*ast.ProcessorsDir)
	if pr.Name != "P" || len(pr.Shape) != 2 {
		t.Errorf("processors = %q shape %d", pr.Name, len(pr.Shape))
	}
	al := prog.Directives[2].(*ast.AlignDir)
	if al.Array != "A" || al.Target != "T" || len(al.Dummies) != 2 {
		t.Errorf("align = %+v", al)
	}
	di := prog.Directives[3].(*ast.DistributeDir)
	if di.Target != "T" || di.Onto != "P" || len(di.Formats) != 2 {
		t.Errorf("distribute = %+v", di)
	}
	if di.Formats[0].Kind != ast.DistBlock {
		t.Errorf("format 0 = %v, want BLOCK", di.Formats[0].Kind)
	}
}

func TestDistributeStarAndCyclic(t *testing.T) {
	src := `PROGRAM d
REAL A(16)
!HPF$ TEMPLATE T(16)
!HPF$ DISTRIBUTE T(CYCLIC)
!HPF$ TEMPLATE U(16,16)
!HPF$ DISTRIBUTE U(BLOCK,*)
A(1) = 0.0
END`
	prog := mustParse(t, src)
	d1 := prog.Directives[1].(*ast.DistributeDir)
	if d1.Formats[0].Kind != ast.DistCyclic {
		t.Errorf("want CYCLIC, got %v", d1.Formats[0].Kind)
	}
	d2 := prog.Directives[3].(*ast.DistributeDir)
	if d2.Formats[1].Kind != ast.DistStar {
		t.Errorf("want *, got %v", d2.Formats[1].Kind)
	}
}

func TestDoLoop(t *testing.T) {
	src := `PROGRAM d
DO I = 1, 10, 2
  X = X + I
END DO
DO J = 1, 5
  Y = J
ENDDO
END`
	prog := mustParse(t, src)
	if len(prog.Body) != 2 {
		t.Fatalf("body = %d stmts", len(prog.Body))
	}
	d := prog.Body[0].(*ast.DoStmt)
	if d.Var != "I" || d.Step == nil || len(d.Body) != 1 {
		t.Errorf("do = %+v", d)
	}
	d2 := prog.Body[1].(*ast.DoStmt)
	if d2.Step != nil {
		t.Error("second DO should have nil step")
	}
}

func TestDoWhile(t *testing.T) {
	src := "PROGRAM d\nDO WHILE (X .LT. 10)\nX = X + 1\nEND DO\nEND"
	prog := mustParse(t, src)
	dw := prog.Body[0].(*ast.DoWhileStmt)
	if len(dw.Body) != 1 {
		t.Errorf("body = %d", len(dw.Body))
	}
}

func TestNestedDo(t *testing.T) {
	src := `PROGRAM d
DO I = 1, N
  DO J = 1, M
    A(I,J) = 0.0
  END DO
END DO
END`
	prog := mustParse(t, src)
	outer := prog.Body[0].(*ast.DoStmt)
	inner := outer.Body[0].(*ast.DoStmt)
	if inner.Var != "J" {
		t.Errorf("inner var = %q", inner.Var)
	}
}

func TestBlockIf(t *testing.T) {
	src := `PROGRAM d
IF (X .GT. 0) THEN
  Y = 1
ELSE IF (X .LT. 0) THEN
  Y = -1
ELSE
  Y = 0
END IF
END`
	prog := mustParse(t, src)
	s := prog.Body[0].(*ast.IfStmt)
	if !s.Block || len(s.Then) != 1 || len(s.Else) != 1 {
		t.Fatalf("if = %+v", s)
	}
	nested, ok := s.Else[0].(*ast.IfStmt)
	if !ok {
		t.Fatalf("else[0] = %T, want nested IfStmt", s.Else[0])
	}
	if len(nested.Else) != 1 {
		t.Errorf("nested else = %d", len(nested.Else))
	}
}

func TestLogicalIf(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nIF (X .GT. 0) Y = 1\nEND")
	s := prog.Body[0].(*ast.IfStmt)
	if s.Block {
		t.Error("logical IF should not be Block")
	}
	if len(s.Then) != 1 {
		t.Errorf("then = %d", len(s.Then))
	}
}

func TestForallStatement(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nFORALL (I = 1:N, J = 1:N) P(I,J) = Q(I-1,J-1)\nEND")
	f := prog.Body[0].(*ast.ForallStmt)
	if len(f.Indices) != 2 || f.Mask != nil || f.Construct {
		t.Fatalf("forall = %+v", f)
	}
	if f.Indices[0].Name != "I" || f.Indices[1].Name != "J" {
		t.Errorf("indices = %v", f.Indices)
	}
}

func TestForallWithMask(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nFORALL (I = 1:N, Q(I) .NE. 0.0) P(I) = 1.0/Q(I)\nEND")
	f := prog.Body[0].(*ast.ForallStmt)
	if len(f.Indices) != 1 || f.Mask == nil {
		t.Fatalf("forall = %+v", f)
	}
}

func TestForallConstruct(t *testing.T) {
	src := `PROGRAM d
FORALL (I = 2:N-1)
  X(I) = X(I-1) + X(I+1)
  Y(I) = X(I)
END FORALL
END`
	prog := mustParse(t, src)
	f := prog.Body[0].(*ast.ForallStmt)
	if !f.Construct || len(f.Body) != 2 {
		t.Fatalf("forall = construct %v body %d", f.Construct, len(f.Body))
	}
}

func TestForallWithStride(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nFORALL (I = 1:N:2) X(I) = 0.0\nEND")
	f := prog.Body[0].(*ast.ForallStmt)
	if f.Indices[0].Stride == nil {
		t.Error("want stride expression")
	}
}

func TestWhereStatement(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nWHERE (A .GT. 0.0) B = 1.0/A\nEND")
	w := prog.Body[0].(*ast.WhereStmt)
	if w.Construct || len(w.Body) != 1 {
		t.Fatalf("where = %+v", w)
	}
}

func TestWhereConstruct(t *testing.T) {
	src := `PROGRAM d
WHERE (A .GT. 0.0)
  B = 1.0/A
ELSEWHERE
  B = 0.0
END WHERE
END`
	prog := mustParse(t, src)
	w := prog.Body[0].(*ast.WhereStmt)
	if !w.Construct || len(w.Body) != 1 || len(w.ElseBody) != 1 {
		t.Fatalf("where = %+v", w)
	}
}

func TestArrayAssignmentWithSections(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nA(2:N-1) = B(1:N-2) + B(3:N)\nEND")
	s := prog.Body[0].(*ast.AssignStmt)
	lhs := s.Lhs.(*ast.CallOrIndex)
	sec, ok := lhs.Args[0].(*ast.Section)
	if !ok {
		t.Fatalf("lhs arg = %T, want Section", lhs.Args[0])
	}
	if sec.Lo == nil || sec.Hi == nil {
		t.Error("section bounds missing")
	}
}

func TestFullSectionColon(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nA(:, 1) = B(:, 2)\nEND")
	s := prog.Body[0].(*ast.AssignStmt)
	lhs := s.Lhs.(*ast.CallOrIndex)
	sec, ok := lhs.Args[0].(*ast.Section)
	if !ok {
		t.Fatalf("arg 0 = %T", lhs.Args[0])
	}
	if sec.Lo != nil || sec.Hi != nil {
		t.Error("full section should have nil bounds")
	}
}

func TestWholeArrayAssignment(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nA = B + C\nEND")
	s := prog.Body[0].(*ast.AssignStmt)
	if _, ok := s.Lhs.(*ast.Ident); !ok {
		t.Errorf("lhs = %T", s.Lhs)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nX = 1 + 2 * 3\nEND")
	s := prog.Body[0].(*ast.AssignStmt)
	add := s.Rhs.(*ast.BinaryExpr)
	if add.Op != token.PLUS {
		t.Fatalf("top op = %v, want +", add.Op)
	}
	mul := add.Y.(*ast.BinaryExpr)
	if mul.Op != token.STAR {
		t.Errorf("inner op = %v, want *", mul.Op)
	}
}

func TestPowerRightAssociative(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nX = A ** B ** C\nEND")
	s := prog.Body[0].(*ast.AssignStmt)
	top := s.Rhs.(*ast.BinaryExpr)
	if top.Op != token.POW {
		t.Fatalf("top = %v", top.Op)
	}
	if _, ok := top.Y.(*ast.BinaryExpr); !ok {
		t.Error("** should be right-associative: right child must be BinaryExpr")
	}
}

func TestUnaryMinus(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nX = -Y + 3\nEND")
	s := prog.Body[0].(*ast.AssignStmt)
	add := s.Rhs.(*ast.BinaryExpr)
	if _, ok := add.X.(*ast.UnaryExpr); !ok {
		t.Errorf("left of + is %T, want UnaryExpr", add.X)
	}
}

func TestLogicalPrecedence(t *testing.T) {
	// A .OR. B .AND. C  parses as  A .OR. (B .AND. C)
	prog := mustParse(t, "PROGRAM d\nX = A .OR. B .AND. C\nEND")
	s := prog.Body[0].(*ast.AssignStmt)
	or := s.Rhs.(*ast.BinaryExpr)
	if or.Op != token.OR {
		t.Fatalf("top = %v", or.Op)
	}
	and := or.Y.(*ast.BinaryExpr)
	if and.Op != token.AND {
		t.Errorf("right = %v", and.Op)
	}
}

func TestIntrinsicCallExpr(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nS = SUM(A * B)\nEND")
	s := prog.Body[0].(*ast.AssignStmt)
	c := s.Rhs.(*ast.CallOrIndex)
	if c.Name != "SUM" || len(c.Args) != 1 {
		t.Errorf("call = %+v", c)
	}
}

func TestCshiftCall(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nB = CSHIFT(A, 1, 2)\nEND")
	c := prog.Body[0].(*ast.AssignStmt).Rhs.(*ast.CallOrIndex)
	if c.Name != "CSHIFT" || len(c.Args) != 3 {
		t.Errorf("call = %+v", c)
	}
}

func TestPrintStatement(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nPRINT *, 'result', X\nEND")
	ps := prog.Body[0].(*ast.PrintStmt)
	if len(ps.Args) != 2 {
		t.Errorf("args = %d", len(ps.Args))
	}
}

func TestCallStatement(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nCALL INIT_RANDOM(A, 42)\nEND")
	cs := prog.Body[0].(*ast.CallStmt)
	if cs.Name != "INIT_RANDOM" || len(cs.Args) != 2 {
		t.Errorf("call = %+v", cs)
	}
}

func TestStopAndContinue(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nCONTINUE\nSTOP\nEND")
	if _, ok := prog.Body[0].(*ast.ContinueStmt); !ok {
		t.Errorf("stmt 0 = %T", prog.Body[0])
	}
	if _, ok := prog.Body[1].(*ast.StopStmt); !ok {
		t.Errorf("stmt 1 = %T", prog.Body[1])
	}
}

func TestContinuedExpression(t *testing.T) {
	src := "PROGRAM d\nX = 1 + 2 + &\n    3 + 4\nEND"
	prog := mustParse(t, src)
	if len(prog.Body) != 1 {
		t.Errorf("body = %d", len(prog.Body))
	}
}

func TestSyntaxErrorHasPosition(t *testing.T) {
	_, err := Parse("PROGRAM d\nX = )\nEND")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error should mention line 2: %v", err)
	}
}

func TestMissingEnd(t *testing.T) {
	_, err := Parse("PROGRAM d\nX = 1\n")
	if err == nil {
		t.Fatal("want error for missing END")
	}
}

func TestErrorRecoveryMultipleErrors(t *testing.T) {
	_, err := Parse("PROGRAM d\nX = )\nY = )\nEND")
	if err == nil {
		t.Fatal("want errors")
	}
	if list, ok := err.(ErrorList); ok {
		if len(list) < 2 {
			t.Errorf("want >= 2 errors after recovery, got %d", len(list))
		}
	}
}

func TestStatementLabel(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\n10 CONTINUE\nEND")
	if _, ok := prog.Body[0].(*ast.ContinueStmt); !ok {
		t.Errorf("stmt = %T", prog.Body[0])
	}
}

func TestWriteAsPrint(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nWRITE(*,*) X, Y\nEND")
	ps := prog.Body[0].(*ast.PrintStmt)
	if len(ps.Args) != 2 {
		t.Errorf("args = %d", len(ps.Args))
	}
}

func TestSemicolonSeparatedStatements(t *testing.T) {
	prog := mustParse(t, "PROGRAM d\nX = 1; Y = 2\nEND")
	if len(prog.Body) != 2 {
		t.Errorf("body = %d", len(prog.Body))
	}
}

// parseAllocs returns the objects and bytes one Parse of src allocates,
// each the least over a few runs, so that an allocation elsewhere in the
// process cannot inflate it.
func parseAllocs(t *testing.T, src string) (objects, bytes uint64) {
	t.Helper()
	objects, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		_, err := Parse(src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// TestParseAllocsIgnoreTokenCount holds the parser to allocating per
// AST node, not per token: a program and its twin, whose right-hand
// sides sit inside 16 redundant parenthesis pairs (the same AST from 32
// more tokens a statement), allocate the same objects and bytes.
func TestParseAllocsIgnoreTokenCount(t *testing.T) {
	const stmts = 200
	plain, nested := "PROGRAM P\nREAL A(10)\n", "PROGRAM P\nREAL A(10)\n"
	for i := 0; i < stmts; i++ {
		rhs := fmt.Sprintf("A(%d) * 2.5 + X", i%10+1)
		plain += "X = " + rhs + "\n"
		nested += "X = " + strings.Repeat("(", 16) + rhs + strings.Repeat(")", 16) + "\n"
	}
	plain += "END\n"
	nested += "END\n"
	po, pb := parseAllocs(t, plain)
	no, nb := parseAllocs(t, nested)
	if po != no || pb != nb {
		t.Errorf("plain program allocates %d objects, %d bytes; its parenthesized twin %d objects, %d bytes",
			po, pb, no, nb)
	}
}
