// Package parser implements a recursive-descent parser for the HPF/Fortran
// 90D subset, producing the AST of package ast. This is the first step of
// compilation phase 1 in the paper (§4.1 step 1). The parser streams its
// tokens: it pulls each one from the scanner when it advances and keeps
// only the current token and the next, so no token slice is built.
// Lexical errors still come first in the error list, as if the whole
// source had been scanned before parsing began.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"hpfperf/internal/ast"
	"hpfperf/internal/scanner"
	"hpfperf/internal/token"
)

// Error is a syntax error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a list of parse errors implementing error.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	var b strings.Builder
	for i, e := range l {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(e.Error())
	}
	return b.String()
}

// Parse parses a complete HPF/Fortran 90D program unit.
func Parse(src string) (*ast.Program, error) {
	p := &parser{src: src, sc: scanner.New(src), lexErrs: -1}
	p.tok = p.sc.Scan()
	p.ahead = p.tok
	if p.tok.Kind != token.EOF {
		p.ahead = p.sc.Scan()
	}
	prog := p.parseProgram()
	// Drain the scanner, so that lexical errors after END are reported.
	for p.ahead.Kind != token.EOF {
		p.ahead = p.sc.Scan()
	}
	lex := p.sc.Errors()
	if len(lex)+len(p.errs) == 0 {
		return prog, nil
	}
	// Lexical errors come first, then syntax errors.
	errs := make(ErrorList, 0, len(lex)+len(p.errs))
	for _, e := range lex {
		errs = append(errs, &Error{Pos: e.Pos, Msg: e.Msg})
	}
	return prog, append(errs, p.errs...)
}

// parser reads the scanner's stream through a two-token window.
type parser struct {
	src   string
	sc    *scanner.Scanner
	tok   token.Token // current token
	ahead token.Token // the token after tok; EOF once tok is EOF
	errs  ErrorList   // syntax errors only
	// lexErrs is the number of lexical errors in the whole source, or
	// -1 until the first syntax error needs it.
	lexErrs int
}

// bailout is used with panic/recover for unrecoverable statement errors;
// the statement loop resynchronizes at the next NEWLINE.
type bailout struct{}

func (p *parser) cur() token.Token  { return p.tok }
func (p *parser) kind() token.Kind  { return p.tok.Kind }
func (p *parser) peek() token.Token { return p.ahead }

// advance moves the window one token on; it stays put at EOF.
func (p *parser) advance() token.Token {
	t := p.tok
	if t.Kind != token.EOF {
		p.tok = p.ahead
		if p.ahead.Kind != token.EOF {
			p.ahead = p.sc.Scan()
		}
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.kind() == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.advance()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	panic(bailout{})
}

func (p *parser) errorf(format string, args ...any) {
	p.errs = append(p.errs, &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)})
	if p.lexErrs < 0 {
		p.lexErrs = lexErrorCount(p.src)
	}
	if p.lexErrs+len(p.errs) > 50 {
		panic(bailout{}) // avoid error cascades on badly corrupt input
	}
}

// lexErrorCount scans the whole source once more and counts its lexical
// errors. The cascade cap counts every error in the list, lexical ones
// included, but the parser's own scanner has only reached the current
// token; only a source with a syntax error pays for this second scan.
func lexErrorCount(src string) int {
	s := scanner.New(src)
	for s.Scan().Kind != token.EOF {
	}
	return len(s.Errors())
}

// skipNewlines consumes any run of statement separators.
func (p *parser) skipNewlines() {
	for p.at(token.NEWLINE) || p.at(token.SEMI) {
		p.advance()
	}
}

// syncLine skips to just after the next statement separator.
func (p *parser) syncLine() {
	for !p.at(token.NEWLINE) && !p.at(token.SEMI) && !p.at(token.EOF) {
		p.advance()
	}
	p.skipNewlines()
}

// endOfStmt consumes the mandatory statement separator (or EOF).
func (p *parser) endOfStmt() {
	if p.at(token.EOF) {
		return
	}
	if p.at(token.NEWLINE) || p.at(token.SEMI) {
		p.skipNewlines()
		return
	}
	p.errorf("unexpected %s at end of statement", p.cur())
	p.syncLine()
}

// ---------------------------------------------------------------------------
// Program structure

func (p *parser) parseProgram() *ast.Program {
	defer p.recoverBail()
	p.skipNewlines()
	prog := &ast.Program{Name: "MAIN", NamePos: p.cur().Pos}
	if p.accept(token.KwPROGRAM) {
		prog.Name = p.expect(token.IDENT).Text
		p.endOfStmt()
	}
	// Specification part: declarations and directives.
	for {
		p.skipNewlines()
		switch p.kind() {
		case token.KwINTEGER, token.KwREAL, token.KwDOUBLE, token.KwLOGICAL, token.KwCHARACTER:
			p.withRecover(func() { prog.Decls = append(prog.Decls, p.parseTypeDecl()) })
		case token.KwPARAMETER:
			p.withRecover(func() { prog.Decls = append(prog.Decls, p.parseParameterDecl()) })
		case token.KwDIMENSION:
			p.withRecover(func() { prog.Decls = append(prog.Decls, p.parseDimensionDecl()) })
		case token.KwIMPLICIT:
			p.withRecover(func() {
				pos := p.advance().Pos
				p.expect(token.KwNONE)
				p.endOfStmt()
				prog.Decls = append(prog.Decls, &ast.ImplicitNoneDecl{ImpPos: pos})
			})
		case token.KwHPF:
			if p.peek().Kind == token.KwINDEPENDENT {
				// INDEPENDENT opens the execution part: it attaches to the
				// DO/FORALL statement that follows it.
				goto body
			}
			p.withRecover(func() {
				if d := p.parseDirective(); d != nil {
					prog.Directives = append(prog.Directives, d)
				}
			})
		default:
			goto body
		}
	}
body:
	// Execution part.
	for {
		p.skipNewlines()
		if p.at(token.EOF) {
			p.errorf("missing END statement")
			return prog
		}
		if p.at(token.KwEND) {
			p.advance()
			p.accept(token.KwPROGRAM)
			p.accept(token.IDENT) // optional program name
			return prog
		}
		if p.at(token.KwHPF) {
			if p.peek().Kind == token.KwINDEPENDENT {
				// INDEPENDENT attaches to the following DO/FORALL statement.
				p.withRecover(func() {
					if s := p.parseStmt(); s != nil {
						prog.Body = append(prog.Body, s)
					}
				})
				continue
			}
			// Executable-part directives (e.g. REDISTRIBUTE) are parsed and
			// recorded with the others.
			p.withRecover(func() {
				if d := p.parseDirective(); d != nil {
					prog.Directives = append(prog.Directives, d)
				}
			})
			continue
		}
		p.withRecover(func() {
			if s := p.parseStmt(); s != nil {
				prog.Body = append(prog.Body, s)
			}
		})
	}
}

func (p *parser) withRecover(f func()) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			p.syncLine()
		}
	}()
	f()
}

func (p *parser) recoverBail() {
	if r := recover(); r != nil {
		if _, ok := r.(bailout); !ok {
			panic(r)
		}
	}
}

// ---------------------------------------------------------------------------
// Declarations

func (p *parser) parseTypeDecl() ast.Decl {
	pos := p.cur().Pos
	var bt ast.BaseType
	switch p.advance().Kind {
	case token.KwINTEGER:
		bt = ast.TInteger
	case token.KwREAL:
		bt = ast.TReal
	case token.KwDOUBLE:
		p.expect(token.KwPRECISION)
		bt = ast.TDouble
	case token.KwLOGICAL:
		bt = ast.TLogical
	case token.KwCHARACTER:
		bt = ast.TCharacter
	}
	// Attribute form: INTEGER, PARAMETER :: N = 4
	if p.accept(token.COMMA) {
		p.expect(token.KwPARAMETER)
		p.expect(token.DCOLON)
		pd := &ast.ParameterDecl{ParPos: pos}
		for {
			name := p.expect(token.IDENT).Text
			p.expect(token.ASSIGN)
			pd.Names = append(pd.Names, name)
			pd.Values = append(pd.Values, p.parseExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.endOfStmt()
		return pd
	}
	p.accept(token.DCOLON)
	d := &ast.TypeDecl{Type: bt, TypePos: pos}
	for {
		d.Entities = append(d.Entities, p.parseEntity())
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.endOfStmt()
	return d
}

func (p *parser) parseEntity() ast.Entity {
	tok := p.expect(token.IDENT)
	e := ast.Entity{Name: tok.Text, Pos: tok.Pos}
	if p.accept(token.LPAREN) {
		for {
			e.Dims = append(e.Dims, p.parseArrayBound())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
	}
	return e
}

func (p *parser) parseArrayBound() ast.ArrayBound {
	first := p.parseExpr()
	if p.accept(token.COLON) {
		return ast.ArrayBound{Lo: first, Hi: p.parseExpr()}
	}
	return ast.ArrayBound{Hi: first}
}

func (p *parser) parseParameterDecl() ast.Decl {
	pos := p.expect(token.KwPARAMETER).Pos
	p.expect(token.LPAREN)
	d := &ast.ParameterDecl{ParPos: pos}
	for {
		name := p.expect(token.IDENT).Text
		p.expect(token.ASSIGN)
		d.Names = append(d.Names, name)
		d.Values = append(d.Values, p.parseExpr())
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	p.endOfStmt()
	return d
}

func (p *parser) parseDimensionDecl() ast.Decl {
	pos := p.expect(token.KwDIMENSION).Pos
	d := &ast.DimensionDecl{DimPos: pos}
	for {
		d.Entities = append(d.Entities, p.parseEntity())
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.endOfStmt()
	return d
}

// ---------------------------------------------------------------------------
// Directives

func (p *parser) parseDirective() ast.Directive {
	pos := p.expect(token.KwHPF).Pos
	switch p.kind() {
	case token.KwPROCESSORS:
		p.advance()
		d := &ast.ProcessorsDir{DPos: pos}
		d.Name = p.expect(token.IDENT).Text
		if p.accept(token.LPAREN) {
			for {
				d.Shape = append(d.Shape, p.parseExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
		}
		p.endOfStmt()
		return d
	case token.KwTEMPLATE:
		p.advance()
		d := &ast.TemplateDir{DPos: pos}
		d.Name = p.expect(token.IDENT).Text
		p.expect(token.LPAREN)
		for {
			d.Dims = append(d.Dims, p.parseArrayBound())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
		p.endOfStmt()
		return d
	case token.KwALIGN:
		p.advance()
		d := &ast.AlignDir{DPos: pos}
		d.Array = p.expect(token.IDENT).Text
		if p.accept(token.LPAREN) {
			for {
				d.Dummies = append(d.Dummies, p.expect(token.IDENT).Text)
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
		}
		p.expect(token.KwWITH)
		d.Target = p.expect(token.IDENT).Text
		if p.accept(token.LPAREN) {
			for {
				if p.at(token.STAR) {
					p.advance()
					d.TargetSubs = append(d.TargetSubs, nil)
				} else {
					d.TargetSubs = append(d.TargetSubs, p.parseExpr())
				}
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
		}
		p.endOfStmt()
		return d
	case token.KwDISTRIBUTE, token.KwREDISTRIBUTE:
		p.advance()
		d := &ast.DistributeDir{DPos: pos}
		d.Target = p.expect(token.IDENT).Text
		p.expect(token.LPAREN)
		for {
			d.Formats = append(d.Formats, p.parseDistFormat())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
		if p.accept(token.KwONTO) {
			d.Onto = p.expect(token.IDENT).Text
		}
		p.endOfStmt()
		return d
	}
	p.errorf("unknown HPF directive starting with %s", p.cur())
	p.syncLine()
	return nil
}

func (p *parser) parseDistFormat() ast.DistFormat {
	switch p.kind() {
	case token.KwBLOCK:
		p.advance()
		f := ast.DistFormat{Kind: ast.DistBlock}
		if p.accept(token.LPAREN) {
			f.Arg = p.parseExpr()
			p.expect(token.RPAREN)
		}
		return f
	case token.KwCYCLIC:
		p.advance()
		f := ast.DistFormat{Kind: ast.DistCyclic}
		if p.accept(token.LPAREN) {
			f.Arg = p.parseExpr()
			p.expect(token.RPAREN)
		}
		return f
	case token.STAR:
		p.advance()
		return ast.DistFormat{Kind: ast.DistStar}
	}
	p.errorf("expected BLOCK, CYCLIC or '*' in DISTRIBUTE, found %s", p.cur())
	panic(bailout{})
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseStmt() ast.Stmt {
	switch p.kind() {
	case token.KwHPF:
		return p.parseIndependent()
	case token.KwDO:
		return p.parseDo()
	case token.KwIF:
		return p.parseIf()
	case token.KwFORALL:
		return p.parseForall()
	case token.KwWHERE:
		return p.parseWhere()
	case token.KwCALL:
		return p.parseCall()
	case token.KwPRINT:
		return p.parsePrint()
	case token.KwWRITE, token.KwREAD:
		// Treated like PRINT for abstraction purposes.
		return p.parseWriteRead()
	case token.KwSTOP:
		pos := p.advance().Pos
		if p.at(token.INTLIT) || p.at(token.STRINGLIT) {
			p.advance()
		}
		p.endOfStmt()
		return &ast.StopStmt{StopPos: pos}
	case token.KwCONTINUE:
		pos := p.advance().Pos
		p.endOfStmt()
		return &ast.ContinueStmt{ContPos: pos}
	case token.IDENT:
		return p.parseAssign()
	case token.INTLIT:
		// Statement label: "10 CONTINUE" — accept and ignore the label.
		p.advance()
		return p.parseStmt()
	}
	p.errorf("unexpected %s at start of statement", p.cur())
	panic(bailout{})
}

// parseIndependent parses an executable-position !HPF$ INDEPENDENT
// directive and attaches it to the DO or FORALL statement that must
// immediately follow it.
func (p *parser) parseIndependent() ast.Stmt {
	pos := p.expect(token.KwHPF).Pos
	if !p.at(token.KwINDEPENDENT) {
		p.errorf("unknown HPF directive %s in executable block", p.cur())
		p.syncLine()
		return nil
	}
	p.advance()
	p.endOfStmt()
	p.skipNewlines()
	switch p.kind() {
	case token.KwDO:
		s := p.parseDo()
		if d, ok := s.(*ast.DoStmt); ok {
			d.Independent = true
		} else {
			p.errs = append(p.errs, &Error{Pos: pos, Msg: "INDEPENDENT directive cannot apply to DO WHILE"})
		}
		return s
	case token.KwFORALL:
		s := p.parseForall()
		if f, ok := s.(*ast.ForallStmt); ok {
			f.Independent = true
		}
		return s
	}
	p.errs = append(p.errs, &Error{Pos: pos, Msg: "INDEPENDENT directive must immediately precede a DO or FORALL statement"})
	return nil
}

func (p *parser) parseAssign() ast.Stmt {
	lhs := p.parsePrimary()
	switch lhs.(type) {
	case *ast.Ident, *ast.CallOrIndex:
	default:
		p.errorf("invalid assignment target")
		panic(bailout{})
	}
	p.expect(token.ASSIGN)
	rhs := p.parseExpr()
	p.endOfStmt()
	return &ast.AssignStmt{Lhs: lhs, Rhs: rhs}
}

func (p *parser) parseDo() ast.Stmt {
	pos := p.expect(token.KwDO).Pos
	if p.accept(token.KwWHILE) {
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		p.endOfStmt()
		body := p.parseBlockUntil(p.isEndDo)
		p.consumeEndDo()
		return &ast.DoWhileStmt{Cond: cond, Body: body, DoPos: pos}
	}
	// Optional label form "DO 10 I = ..." — skip the label.
	p.acceptLabel()
	v := p.expect(token.IDENT).Text
	p.expect(token.ASSIGN)
	from := p.parseExpr()
	p.expect(token.COMMA)
	to := p.parseExpr()
	var step ast.Expr
	if p.accept(token.COMMA) {
		step = p.parseExpr()
	}
	p.endOfStmt()
	body := p.parseBlockUntil(p.isEndDo)
	p.consumeEndDo()
	return &ast.DoStmt{Var: v, From: from, To: to, Step: step, Body: body, DoPos: pos}
}

func (p *parser) acceptLabel() {
	if p.at(token.INTLIT) && p.peek().Kind == token.IDENT {
		p.advance()
	}
}

func (p *parser) isEndDo() bool {
	if p.at(token.KwENDDO) {
		return true
	}
	return p.at(token.KwEND) && p.peek().Kind == token.KwDO
}

func (p *parser) consumeEndDo() {
	if p.accept(token.KwENDDO) {
		p.endOfStmt()
		return
	}
	p.expect(token.KwEND)
	p.expect(token.KwDO)
	p.endOfStmt()
}

func (p *parser) parseIf() ast.Stmt {
	pos := p.expect(token.KwIF).Pos
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	if !p.at(token.KwTHEN) {
		// Logical IF: one statement on the same line.
		inner := p.parseStmt()
		return &ast.IfStmt{Cond: cond, Then: []ast.Stmt{inner}, IfPos: pos}
	}
	p.expect(token.KwTHEN)
	p.endOfStmt()
	s := &ast.IfStmt{Cond: cond, Block: true, IfPos: pos}
	s.Then = p.parseBlockUntil(p.isIfBranchEnd)
	p.parseIfTail(s)
	return s
}

// isIfBranchEnd reports whether the current token starts ELSE / ELSE IF /
// ELSEIF / END IF / ENDIF.
func (p *parser) isIfBranchEnd() bool {
	switch p.kind() {
	case token.KwELSE, token.KwELSEIF, token.KwENDIF:
		return true
	case token.KwEND:
		return p.peek().Kind == token.KwIF
	}
	return false
}

func (p *parser) parseIfTail(s *ast.IfStmt) {
	switch {
	case p.at(token.KwENDIF):
		p.advance()
		p.endOfStmt()
	case p.at(token.KwEND):
		p.advance()
		p.expect(token.KwIF)
		p.endOfStmt()
	case p.at(token.KwELSEIF), p.at(token.KwELSE) && p.peek().Kind == token.KwIF:
		// ELSE IF (cond) THEN — build a nested IfStmt in Else.
		pos := p.advance().Pos
		if p.kind() == token.KwIF {
			p.advance()
		}
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.KwTHEN)
		p.endOfStmt()
		nested := &ast.IfStmt{Cond: cond, Block: true, IfPos: pos}
		nested.Then = p.parseBlockUntil(p.isIfBranchEnd)
		p.parseIfTail(nested)
		s.Else = []ast.Stmt{nested}
	case p.at(token.KwELSE):
		p.advance()
		p.endOfStmt()
		s.Else = p.parseBlockUntil(p.isIfBranchEnd)
		if p.at(token.KwENDIF) {
			p.advance()
		} else {
			p.expect(token.KwEND)
			p.expect(token.KwIF)
		}
		p.endOfStmt()
	default:
		p.errorf("expected ELSE or END IF, found %s", p.cur())
		panic(bailout{})
	}
}

func (p *parser) parseForall() ast.Stmt {
	pos := p.expect(token.KwFORALL).Pos
	p.expect(token.LPAREN)
	s := &ast.ForallStmt{ForPos: pos}
	for {
		// Index-spec (IDENT '=' triplet) or trailing mask expression.
		if p.at(token.IDENT) && p.peek().Kind == token.ASSIGN {
			name := p.advance().Text
			p.advance() // '='
			lo := p.parseExpr()
			p.expect(token.COLON)
			hi := p.parseExpr()
			var stride ast.Expr
			if p.accept(token.COLON) {
				stride = p.parseExpr()
			}
			s.Indices = append(s.Indices, ast.ForallIndex{Name: name, Lo: lo, Hi: hi, Stride: stride})
		} else {
			if s.Mask != nil {
				p.errorf("multiple mask expressions in FORALL")
			}
			s.Mask = p.parseExpr()
		}
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	if len(s.Indices) == 0 {
		p.errorf("FORALL requires at least one index specification")
	}
	if p.at(token.NEWLINE) || p.at(token.SEMI) {
		// FORALL construct.
		s.Construct = true
		p.endOfStmt()
		s.Body = p.parseBlockUntil(p.isEndForall)
		p.consumeEndForall()
		return s
	}
	inner := p.parseStmt()
	s.Body = []ast.Stmt{inner}
	return s
}

func (p *parser) isEndForall() bool {
	if p.at(token.KwENDFORALL) {
		return true
	}
	return p.at(token.KwEND) && p.peek().Kind == token.KwFORALL
}

func (p *parser) consumeEndForall() {
	if p.accept(token.KwENDFORALL) {
		p.endOfStmt()
		return
	}
	p.expect(token.KwEND)
	p.expect(token.KwFORALL)
	p.endOfStmt()
}

func (p *parser) parseWhere() ast.Stmt {
	pos := p.expect(token.KwWHERE).Pos
	p.expect(token.LPAREN)
	mask := p.parseExpr()
	p.expect(token.RPAREN)
	s := &ast.WhereStmt{Mask: mask, WherePos: pos}
	if p.at(token.NEWLINE) || p.at(token.SEMI) {
		s.Construct = true
		p.endOfStmt()
		s.Body = p.parseBlockUntil(p.isWhereBranchEnd)
		if p.at(token.KwELSEWHERE) {
			p.advance()
			p.endOfStmt()
			s.ElseBody = p.parseBlockUntil(p.isWhereBranchEnd)
		}
		if p.accept(token.KwENDWHERE) {
			p.endOfStmt()
		} else {
			p.expect(token.KwEND)
			p.expect(token.KwWHERE)
			p.endOfStmt()
		}
		return s
	}
	inner := p.parseStmt()
	s.Body = []ast.Stmt{inner}
	return s
}

func (p *parser) isWhereBranchEnd() bool {
	switch p.kind() {
	case token.KwELSEWHERE, token.KwENDWHERE:
		return true
	case token.KwEND:
		return p.peek().Kind == token.KwWHERE
	}
	return false
}

func (p *parser) parseCall() ast.Stmt {
	pos := p.expect(token.KwCALL).Pos
	name := p.expect(token.IDENT).Text
	s := &ast.CallStmt{Name: name, CallPos: pos}
	if p.accept(token.LPAREN) {
		if !p.at(token.RPAREN) {
			for {
				s.Args = append(s.Args, p.parseExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
		}
		p.expect(token.RPAREN)
	}
	p.endOfStmt()
	return s
}

func (p *parser) parsePrint() ast.Stmt {
	pos := p.expect(token.KwPRINT).Pos
	p.expect(token.STAR)
	s := &ast.PrintStmt{PrintPos: pos}
	for p.accept(token.COMMA) {
		s.Args = append(s.Args, p.parseExpr())
	}
	p.endOfStmt()
	return s
}

// parseWriteRead accepts WRITE(*,*) list / READ(*,*) list and models them
// as PRINT for abstraction purposes.
func (p *parser) parseWriteRead() ast.Stmt {
	pos := p.advance().Pos // WRITE or READ
	p.expect(token.LPAREN)
	p.expect(token.STAR)
	p.expect(token.COMMA)
	p.expect(token.STAR)
	p.expect(token.RPAREN)
	s := &ast.PrintStmt{PrintPos: pos}
	if !p.at(token.NEWLINE) && !p.at(token.SEMI) && !p.at(token.EOF) {
		for {
			s.Args = append(s.Args, p.parseExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	p.endOfStmt()
	return s
}

// parseBlockUntil parses statements until stop() reports a terminator
// (which is left unconsumed) or EOF.
func (p *parser) parseBlockUntil(stop func() bool) []ast.Stmt {
	var body []ast.Stmt
	for {
		p.skipNewlines()
		if p.at(token.EOF) || stop() {
			return body
		}
		if p.at(token.KwEND) {
			// A bare END here means a missing terminator; stop to let the
			// enclosing construct report it.
			switch p.peek().Kind {
			case token.KwDO, token.KwIF, token.KwFORALL, token.KwWHERE:
			default:
				return body
			}
		}
		p.withRecover(func() {
			if s := p.parseStmt(); s != nil {
				body = append(body, s)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Expressions

func (p *parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	for {
		prec := token.Precedence(p.kind())
		if prec < minPrec || prec == 0 {
			return lhs
		}
		op := p.advance()
		// '**' is right-associative; everything else left-associative.
		next := prec + 1
		if op.Kind == token.POW {
			next = prec
		}
		rhs := p.parseBinary(next)
		lhs = &ast.BinaryExpr{Op: op.Kind, X: lhs, Y: rhs, OpPos: op.Pos}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.kind() {
	case token.MINUS, token.PLUS, token.NOT:
		op := p.advance()
		x := p.parseUnary()
		if op.Kind == token.PLUS {
			return x
		}
		return &ast.UnaryExpr{Op: op.Kind, X: x, OpPos: op.Pos}
	}
	return p.parsePower()
}

// parsePower handles the Fortran quirk that -A**2 is -(A**2) but A**-B is
// allowed after **; our parseBinary handles ** via precedence, so this just
// forwards to primary.
func (p *parser) parsePower() ast.Expr {
	base := p.parsePrimary()
	if p.at(token.POW) {
		op := p.advance()
		exp := p.parseUnary() // allow A ** -2
		return &ast.BinaryExpr{Op: token.POW, X: base, Y: exp, OpPos: op.Pos}
	}
	return base
}

func (p *parser) parsePrimary() ast.Expr {
	tok := p.cur()
	switch tok.Kind {
	case token.INTLIT:
		p.advance()
		v, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			p.errorf("invalid integer literal %q", tok.Text)
		}
		return &ast.IntLit{Value: v, Text: tok.Text, ValuePos: tok.Pos}
	case token.REALLIT:
		p.advance()
		v, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			p.errorf("invalid real literal %q", tok.Text)
		}
		return &ast.RealLit{Value: v, Text: tok.Text, ValuePos: tok.Pos}
	case token.LOGICALLIT:
		p.advance()
		return &ast.LogicalLit{Value: tok.Text == "TRUE", ValuePos: tok.Pos}
	case token.STRINGLIT:
		p.advance()
		return &ast.StringLit{Value: tok.Text, ValuePos: tok.Pos}
	case token.IDENT:
		p.advance()
		if p.at(token.LPAREN) {
			return p.parseCallOrIndex(tok)
		}
		return &ast.Ident{Name: tok.Text, NamePos: tok.Pos}
	case token.KwREAL:
		// REAL is both a type keyword and the conversion intrinsic; in
		// expression position it must be the intrinsic call REAL(x).
		p.advance()
		if p.at(token.LPAREN) {
			return p.parseCallOrIndex(token.Token{Kind: token.IDENT, Text: "REAL", Pos: tok.Pos})
		}
		p.errorf("REAL keyword in expression position")
		panic(bailout{})
	case token.LPAREN:
		p.advance()
		e := p.parseExpr()
		p.expect(token.RPAREN)
		return e
	}
	p.errorf("unexpected %s in expression", tok)
	panic(bailout{})
}

func (p *parser) parseCallOrIndex(name token.Token) ast.Expr {
	p.expect(token.LPAREN)
	c := &ast.CallOrIndex{Name: name.Text, NamePos: name.Pos}
	if !p.at(token.RPAREN) {
		for {
			c.Args = append(c.Args, p.parseArgOrSection())
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	p.expect(token.RPAREN)
	return c
}

// parseArgOrSection parses one argument which may be a section triplet
// (lo:hi:stride with any part omitted) or an ordinary expression.
func (p *parser) parseArgOrSection() ast.Expr {
	pos := p.cur().Pos
	if p.at(token.COLON) {
		// ":..." — section with omitted lower bound.
		p.advance()
		sec := &ast.Section{ColonPos: pos}
		if !p.sectionEnd() {
			sec.Hi = p.parseExpr()
		}
		if p.accept(token.COLON) {
			sec.Stride = p.parseExpr()
		}
		return sec
	}
	first := p.parseExpr()
	if !p.at(token.COLON) {
		return first
	}
	p.advance()
	sec := &ast.Section{Lo: first, ColonPos: pos}
	if !p.sectionEnd() {
		sec.Hi = p.parseExpr()
	}
	if p.accept(token.COLON) {
		sec.Stride = p.parseExpr()
	}
	return sec
}

func (p *parser) sectionEnd() bool {
	return p.at(token.COMMA) || p.at(token.RPAREN) || p.at(token.COLON)
}
