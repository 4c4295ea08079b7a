// Package scanner implements a lexer for the free-form HPF/Fortran 90D
// subset. It handles case-insensitive keywords, '&' continuation lines,
// '!' comments, '!HPF$' directive sentinels, dot-form logical operators
// (.AND., .GT., ...) and Fortran numeric literals (including d-exponents).
package scanner

import (
	"fmt"
	"strings"

	"hpfperf/internal/token"
)

// Error describes a lexical error at a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Scanner tokenizes a single HPF/Fortran 90D source text. It indexes
// the source string directly, so scanning never copies it.
type Scanner struct {
	src  string
	off  int  // byte offset of next unread char
	line int  // current 1-based line
	col  int  // current 1-based column
	ch   rune // current char, -1 at EOF

	directive bool // inside a !HPF$ directive line
	atLineBeg bool // no non-space token emitted yet on this logical line

	errs []*Error
}

const eof = -1

// New returns a Scanner over src.
func New(src string) *Scanner {
	s := &Scanner{src: src, line: 1, col: 0, atLineBeg: true}
	s.next()
	return s
}

// Errors returns the lexical errors accumulated so far.
func (s *Scanner) Errors() []*Error { return s.errs }

func (s *Scanner) errorf(pos token.Pos, format string, args ...any) {
	s.errs = append(s.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// next advances to the next input character. Only ASCII is meaningful in
// Fortran source; non-ASCII bytes are passed through as single characters.
func (s *Scanner) next() {
	if s.off >= len(s.src) {
		s.ch = eof
		s.col++
		return
	}
	c := s.src[s.off]
	s.off++
	if c == '\n' {
		s.line++
		s.col = 0
		s.ch = '\n'
		return
	}
	s.col++
	s.ch = rune(c)
}

func (s *Scanner) peek() rune {
	if s.off >= len(s.src) {
		return eof
	}
	return rune(s.src[s.off])
}

func (s *Scanner) pos() token.Pos { return token.Pos{Line: s.line, Col: s.col} }

func isLetter(c rune) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isDigit(c rune) bool  { return c >= '0' && c <= '9' }
func isIdent(c rune) bool  { return isLetter(c) || isDigit(c) || c == '_' }

// Scan returns the next token. At end of input it returns EOF forever.
func (s *Scanner) Scan() token.Token {
	for {
		s.skipBlanks()
		switch {
		case s.ch == eof:
			if !s.atLineBeg {
				// Synthesize the final statement separator for sources that
				// do not end in a newline.
				s.atLineBeg = true
				s.directive = false
				return token.Token{Kind: token.NEWLINE, Text: "\n", Pos: s.pos()}
			}
			return token.Token{Kind: token.EOF, Pos: s.pos()}
		case s.ch == '\n':
			pos := s.pos()
			s.next()
			s.directive = false
			if s.atLineBeg {
				continue // collapse blank lines: no NEWLINE token
			}
			s.atLineBeg = true
			return token.Token{Kind: token.NEWLINE, Text: "\n", Pos: pos}
		case s.ch == '&':
			// Continuation: skip to end of line and join with the next,
			// also skipping an optional leading '&' on the continued line.
			s.next()
			s.skipToLineJoin()
			continue
		case s.ch == '!':
			if tok, ok := s.scanBangLine(); ok {
				return tok
			}
			continue
		default:
			tok := s.scanToken()
			if tok.Kind != token.EOF {
				s.atLineBeg = false
			}
			return tok
		}
	}
}

func (s *Scanner) skipBlanks() {
	for s.ch == ' ' || s.ch == '\t' || s.ch == '\r' {
		s.next()
	}
}

// skipToLineJoin consumes the remainder of the current line (allowing a
// trailing comment) and the newline, then an optional leading '&'.
func (s *Scanner) skipToLineJoin() {
	for s.ch != '\n' && s.ch != eof {
		if s.ch == '!' {
			for s.ch != '\n' && s.ch != eof {
				s.next()
			}
			break
		}
		if s.ch != ' ' && s.ch != '\t' && s.ch != '\r' {
			s.errorf(s.pos(), "unexpected %q after continuation '&'", s.ch)
		}
		s.next()
	}
	if s.ch == '\n' {
		s.next()
	}
	s.skipBlanks()
	if s.ch == '&' {
		s.next()
	}
}

// scanBangLine handles '!': either an HPF directive sentinel or a comment.
// It returns (tok, true) when a directive sentinel token is produced.
func (s *Scanner) scanBangLine() (token.Token, bool) {
	pos := s.pos()
	// Try to match HPF$ after '!'.
	rest := s.src[s.off:]
	if len(rest) >= 4 && strings.EqualFold(rest[:4], "HPF$") && s.atLineBeg {
		s.next() // '!'
		for i := 0; i < 4; i++ {
			s.next()
		}
		s.directive = true
		s.atLineBeg = false
		return token.Token{Kind: token.KwHPF, Text: "!HPF$", Pos: pos}, true
	}
	// Ordinary comment: skip to end of line.
	for s.ch != '\n' && s.ch != eof {
		s.next()
	}
	return token.Token{}, false
}

func (s *Scanner) scanToken() token.Token {
	pos := s.pos()
	switch {
	case isLetter(s.ch):
		return s.scanIdent(pos)
	case isDigit(s.ch):
		return s.scanNumber(pos, false)
	case s.ch == '.':
		// Could be .TRUE., .AND. etc, or a real like .5
		if isDigit(s.peek()) {
			return s.scanNumber(pos, true)
		}
		if isLetter(s.peek()) {
			return s.scanDotWord(pos)
		}
		s.next()
		return token.Token{Kind: token.ILLEGAL, Text: ".", Pos: pos}
	case s.ch == '\'' || s.ch == '"':
		return s.scanString(pos, s.ch)
	}
	ch := s.ch
	s.next()
	mk := func(k token.Kind, text string) token.Token {
		return token.Token{Kind: k, Text: text, Pos: pos}
	}
	switch ch {
	case '+':
		return mk(token.PLUS, "+")
	case '-':
		return mk(token.MINUS, "-")
	case '*':
		if s.ch == '*' {
			s.next()
			return mk(token.POW, "**")
		}
		return mk(token.STAR, "*")
	case '/':
		switch s.ch {
		case '/':
			s.next()
			return mk(token.CONCAT, "//")
		case '=':
			s.next()
			return mk(token.NE, "/=")
		}
		return mk(token.SLASH, "/")
	case '(':
		return mk(token.LPAREN, "(")
	case ')':
		return mk(token.RPAREN, ")")
	case ',':
		return mk(token.COMMA, ",")
	case '=':
		if s.ch == '=' {
			s.next()
			return mk(token.EQ, "==")
		}
		return mk(token.ASSIGN, "=")
	case ':':
		if s.ch == ':' {
			s.next()
			return mk(token.DCOLON, "::")
		}
		return mk(token.COLON, ":")
	case ';':
		return mk(token.SEMI, ";")
	case '%':
		return mk(token.PERCENT, "%")
	case '<':
		if s.ch == '=' {
			s.next()
			return mk(token.LE, "<=")
		}
		return mk(token.LT, "<")
	case '>':
		if s.ch == '=' {
			s.next()
			return mk(token.GE, ">=")
		}
		return mk(token.GT, ">")
	}
	s.errorf(pos, "illegal character %q", ch)
	return token.Token{Kind: token.ILLEGAL, Text: string(ch), Pos: pos}
}

// offset returns the byte offset of the current character.
func (s *Scanner) offset() int {
	if s.ch == eof {
		return len(s.src)
	}
	return s.off - 1
}

func (s *Scanner) scanIdent(pos token.Pos) token.Token {
	start := s.offset()
	for isIdent(s.ch) {
		s.next()
	}
	// Upper-casing an already upper-case word returns it unchanged, so an
	// upper-case identifier's text is a slice of the source.
	upper := strings.ToUpper(s.src[start:s.offset()])
	kind := token.Lookup(upper, s.directive)
	// "END DO", "END IF", "ELSE IF", "END FORALL", "END WHERE",
	// "END PROGRAM" are joined by the parser, not here.
	return token.Token{Kind: kind, Text: upper, Pos: pos}
}

// scanDotWord scans .WORD. operators and logical literals.
func (s *Scanner) scanDotWord(pos token.Pos) token.Token {
	s.next() // consume '.'
	start := s.offset()
	for isLetter(s.ch) {
		s.next()
	}
	word := strings.ToUpper(s.src[start:s.offset()])
	if s.ch != '.' {
		s.errorf(pos, "malformed dot-operator .%s", word)
		return token.Token{Kind: token.ILLEGAL, Text: "." + word, Pos: pos}
	}
	s.next() // trailing '.'
	mk := func(k token.Kind, text string) token.Token {
		return token.Token{Kind: k, Text: text, Pos: pos}
	}
	switch word {
	case "TRUE", "FALSE":
		return token.Token{Kind: token.LOGICALLIT, Text: word, Pos: pos}
	case "AND":
		return mk(token.AND, ".AND.")
	case "OR":
		return mk(token.OR, ".OR.")
	case "NOT":
		return mk(token.NOT, ".NOT.")
	case "EQV":
		return mk(token.EQV, ".EQV.")
	case "NEQV":
		return mk(token.NEQV, ".NEQV.")
	case "EQ":
		return mk(token.EQ, ".EQ.")
	case "NE":
		return mk(token.NE, ".NE.")
	case "LT":
		return mk(token.LT, ".LT.")
	case "LE":
		return mk(token.LE, ".LE.")
	case "GT":
		return mk(token.GT, ".GT.")
	case "GE":
		return mk(token.GE, ".GE.")
	}
	s.errorf(pos, "unknown dot-operator .%s.", word)
	return token.Token{Kind: token.ILLEGAL, Text: "." + word + ".", Pos: pos}
}

// scanNumber scans integer and real literals. leadingDot is true when the
// literal started with '.' (e.g. ".5"). The text is a slice of the source,
// except that a d, D or E exponent letter is normalized to e for strconv.
func (s *Scanner) scanNumber(pos token.Pos, leadingDot bool) token.Token {
	start := s.offset()
	isReal := false
	if leadingDot {
		isReal = true
		s.next()
	}
	for isDigit(s.ch) {
		s.next()
	}
	// Fractional part. Careful: "1." followed by a dot-op like 1..AND. is not
	// valid Fortran we need to support; but "(1:N)" uses ':' so no conflict.
	if !leadingDot && s.ch == '.' && !isLetter(s.peek()) {
		isReal = true
		s.next()
		for isDigit(s.ch) {
			s.next()
		}
	}
	exp := -1 // offset of an exponent letter other than 'e'
	// Exponent: e, E, d, D. A bare letter after a number is left for the
	// next token (e.g. a 2D array typo).
	if s.ch == 'e' || s.ch == 'E' || s.ch == 'd' || s.ch == 'D' {
		if isDigit(s.peek()) || s.peek() == '+' || s.peek() == '-' {
			isReal = true
			if s.ch != 'e' {
				exp = s.offset()
			}
			s.next()
			if s.ch == '+' || s.ch == '-' {
				s.next()
			}
			if !isDigit(s.ch) {
				s.errorf(pos, "malformed exponent in numeric literal")
			}
			for isDigit(s.ch) {
				s.next()
			}
		}
	}
	text := s.src[start:s.offset()]
	if exp >= 0 {
		text = s.src[start:exp] + "e" + s.src[exp+1:s.offset()]
	}
	kind := token.INTLIT
	if isReal {
		kind = token.REALLIT
	}
	return token.Token{Kind: kind, Text: text, Pos: pos}
}

func (s *Scanner) scanString(pos token.Pos, quote rune) token.Token {
	s.next() // opening quote
	var b strings.Builder
	for {
		if s.ch == eof || s.ch == '\n' {
			s.errorf(pos, "unterminated string literal")
			break
		}
		if s.ch == quote {
			if s.peek() == byte2rune(byte(quote)) {
				// Doubled quote is an escaped quote.
				b.WriteRune(quote)
				s.next()
				s.next()
				continue
			}
			s.next()
			break
		}
		b.WriteRune(s.ch)
		s.next()
	}
	return token.Token{Kind: token.STRINGLIT, Text: b.String(), Pos: pos}
}

func byte2rune(b byte) rune { return rune(b) }
