package scanner

import (
	"testing"

	"hpfperf/internal/token"
)

// scanAll tokenizes the entire input, returning all tokens up to and
// including the first EOF token.
func scanAll(src string) ([]token.Token, []*Error) {
	s := New(src)
	var toks []token.Token
	for {
		t := s.Scan()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, s.Errors()
		}
	}
}

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, errs := scanAll(src)
	for _, e := range errs {
		t.Errorf("scan error: %v", e)
	}
	out := make([]token.Kind, 0, len(toks))
	for _, tok := range toks {
		out = append(out, tok.Kind)
	}
	return out
}

func expectKinds(t *testing.T, src string, want ...token.Kind) {
	t.Helper()
	got := kinds(t, src)
	want = append(want, token.EOF)
	if len(got) != len(want) {
		t.Fatalf("src %q: got %d tokens %v, want %d %v", src, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("src %q: token %d = %v, want %v", src, i, got[i], want[i])
		}
	}
}

func TestBasicTokens(t *testing.T) {
	expectKinds(t, "X = 1 + 2*Y",
		token.IDENT, token.ASSIGN, token.INTLIT, token.PLUS, token.INTLIT,
		token.STAR, token.IDENT, token.NEWLINE)
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	expectKinds(t, "pRoGrAm laplace", token.KwPROGRAM, token.IDENT, token.NEWLINE)
}

func TestIdentUpperCased(t *testing.T) {
	toks, _ := scanAll("alpha_1")
	if toks[0].Text != "ALPHA_1" {
		t.Errorf("ident text = %q, want ALPHA_1", toks[0].Text)
	}
}

func TestRealLiterals(t *testing.T) {
	cases := map[string]string{
		"1.5":    "1.5",
		"1e-3":   "1e-3",
		"2.5d0":  "2.5e0",
		".5":     ".5",
		"3.":     "3.",
		"1.0E+6": "1.0e+6",
	}
	for src, wantText := range cases {
		toks, errs := scanAll(src)
		if len(errs) > 0 {
			t.Errorf("%q: errors %v", src, errs)
			continue
		}
		if toks[0].Kind != token.REALLIT {
			t.Errorf("%q: kind = %v, want REALLIT", src, toks[0].Kind)
		}
		if toks[0].Text != wantText {
			t.Errorf("%q: text = %q, want %q", src, toks[0].Text, wantText)
		}
	}
}

func TestIntegerNotReal(t *testing.T) {
	toks, _ := scanAll("42")
	if toks[0].Kind != token.INTLIT || toks[0].Text != "42" {
		t.Errorf("got %v %q, want INTLIT 42", toks[0].Kind, toks[0].Text)
	}
}

func TestDotOperators(t *testing.T) {
	expectKinds(t, "A .GT. 0 .AND. .NOT. B",
		token.IDENT, token.GT, token.INTLIT, token.AND, token.NOT, token.IDENT,
		token.NEWLINE)
}

func TestLogicalLiterals(t *testing.T) {
	toks, _ := scanAll(".TRUE. .false.")
	if toks[0].Kind != token.LOGICALLIT || toks[0].Text != "TRUE" {
		t.Errorf("got %v %q", toks[0].Kind, toks[0].Text)
	}
	if toks[1].Kind != token.LOGICALLIT || toks[1].Text != "FALSE" {
		t.Errorf("got %v %q", toks[1].Kind, toks[1].Text)
	}
}

func TestF90RelationalOperators(t *testing.T) {
	expectKinds(t, "a == b /= c < d <= e > f >= g",
		token.IDENT, token.EQ, token.IDENT, token.NE, token.IDENT, token.LT,
		token.IDENT, token.LE, token.IDENT, token.GT, token.IDENT, token.GE,
		token.IDENT, token.NEWLINE)
}

func TestPowerAndConcat(t *testing.T) {
	expectKinds(t, "a ** 2", token.IDENT, token.POW, token.INTLIT, token.NEWLINE)
	expectKinds(t, "a // b", token.IDENT, token.CONCAT, token.IDENT, token.NEWLINE)
}

func TestComments(t *testing.T) {
	expectKinds(t, "x = 1 ! a comment\ny = 2",
		token.IDENT, token.ASSIGN, token.INTLIT, token.NEWLINE,
		token.IDENT, token.ASSIGN, token.INTLIT, token.NEWLINE)
}

func TestCommentOnlyLineEmitsNoNewline(t *testing.T) {
	expectKinds(t, "! header comment\nx = 1",
		token.IDENT, token.ASSIGN, token.INTLIT, token.NEWLINE)
}

func TestContinuationLine(t *testing.T) {
	expectKinds(t, "x = 1 + &\n    2",
		token.IDENT, token.ASSIGN, token.INTLIT, token.PLUS, token.INTLIT,
		token.NEWLINE)
}

func TestContinuationWithLeadingAmp(t *testing.T) {
	expectKinds(t, "x = 1 + &\n  & 2",
		token.IDENT, token.ASSIGN, token.INTLIT, token.PLUS, token.INTLIT,
		token.NEWLINE)
}

func TestHPFDirectiveSentinel(t *testing.T) {
	expectKinds(t, "!HPF$ PROCESSORS P(4)",
		token.KwHPF, token.KwPROCESSORS, token.IDENT, token.LPAREN,
		token.INTLIT, token.RPAREN, token.NEWLINE)
}

func TestHPFDirectiveCaseInsensitive(t *testing.T) {
	expectKinds(t, "!hpf$ distribute T(BLOCK,*) ONTO P",
		token.KwHPF, token.KwDISTRIBUTE, token.IDENT, token.LPAREN,
		token.KwBLOCK, token.COMMA, token.STAR, token.RPAREN, token.KwONTO,
		token.IDENT, token.NEWLINE)
}

func TestDirectiveKeywordsArePlainIdentsOutsideDirectives(t *testing.T) {
	// BLOCK and ALIGN are valid variable names in ordinary statements.
	expectKinds(t, "BLOCK = ALIGN + 1",
		token.IDENT, token.ASSIGN, token.IDENT, token.PLUS, token.INTLIT,
		token.NEWLINE)
}

func TestSemicolonSeparator(t *testing.T) {
	expectKinds(t, "x = 1; y = 2",
		token.IDENT, token.ASSIGN, token.INTLIT, token.SEMI,
		token.IDENT, token.ASSIGN, token.INTLIT, token.NEWLINE)
}

func TestBlankLinesCollapsed(t *testing.T) {
	expectKinds(t, "\n\n\nx = 1\n\n\n",
		token.IDENT, token.ASSIGN, token.INTLIT, token.NEWLINE)
}

func TestStringLiteral(t *testing.T) {
	toks, errs := scanAll("'it''s'")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	if toks[0].Kind != token.STRINGLIT || toks[0].Text != "it's" {
		t.Errorf("got %v %q", toks[0].Kind, toks[0].Text)
	}
}

func TestColonForms(t *testing.T) {
	expectKinds(t, "A(1:N:2)",
		token.IDENT, token.LPAREN, token.INTLIT, token.COLON, token.IDENT,
		token.COLON, token.INTLIT, token.RPAREN, token.NEWLINE)
	expectKinds(t, "INTEGER :: I",
		token.KwINTEGER, token.DCOLON, token.IDENT, token.NEWLINE)
}

func TestPositions(t *testing.T) {
	toks, _ := scanAll("x = 1\n  y = 2")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("x pos = %v, want 1:1", toks[0].Pos)
	}
	// y is the 5th token (x,=,1,NL,y).
	if toks[4].Pos.Line != 2 || toks[4].Pos.Col != 3 {
		t.Errorf("y pos = %v, want 2:3", toks[4].Pos)
	}
}

func TestUnterminatedString(t *testing.T) {
	_, errs := scanAll("'oops")
	if len(errs) == 0 {
		t.Error("want error for unterminated string")
	}
}

func TestIllegalChar(t *testing.T) {
	toks, errs := scanAll("x = @")
	if len(errs) == 0 {
		t.Error("want error for illegal character")
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == token.ILLEGAL {
			found = true
		}
	}
	if !found {
		t.Error("want ILLEGAL token")
	}
}

func TestEOFIsSticky(t *testing.T) {
	s := New("x")
	s.Scan() // IDENT
	s.Scan() // synthetic NEWLINE
	for i := 0; i < 3; i++ {
		if k := s.Scan().Kind; k != token.EOF {
			t.Fatalf("scan %d after end = %v, want EOF", i, k)
		}
	}
}

func TestMalformedDotOperator(t *testing.T) {
	_, errs := scanAll("a .BOGUS. b")
	if len(errs) == 0 {
		t.Error("want error for unknown dot operator")
	}
}
