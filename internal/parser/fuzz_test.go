package parser

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hpfperf/internal/scanner"
	"hpfperf/internal/suite"
	"hpfperf/internal/token"
)

func seedCorpus(f *testing.F) {
	f.Helper()
	paths, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.hpf"))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("seed %s: %v", p, err)
		}
		f.Add(string(b))
	}
	for _, prog := range suite.All() {
		f.Add(prog.Source(prog.Sizes[0], prog.Procs[0]))
	}
	// Degenerate program shapes.
	f.Add("")
	f.Add("      END")
	f.Add("      PROGRAM P\n      END PROGRAM P\n")
	f.Add("      DO I = 1, 10\n")
	f.Add("      IF (X) THEN\n      ELSE\n")
	f.Add("!HPF$ DISTRIBUTE A(BLOCK,CYCLIC) ONTO\n")
	f.Add("      FORALL (I=1:N) A(I) = A(I\n")
	// Lexical errors after END and after a syntax error.
	f.Add("      PROGRAM P\n      X = 1\n      END\n      Y = @")
	f.Add("      X = = 1\n      Y = 'open\n      END\n")
}

// FuzzParser asserts the parser never panics on arbitrary input, that
// every reported syntax error carries a valid 1-based line number — the
// property the interactive tooling (hpfserve, hpfpc) relies on to anchor
// diagnostics to source lines — and that the error list begins with
// exactly the errors a full scan of the source reports, in order, though
// the parser scans as it goes and stops parsing at END.
func FuzzParser(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		sc := scanner.New(src)
		for sc.Scan().Kind != token.EOF {
		}
		lex := sc.Errors()
		prog, err := Parse(src)
		if err == nil {
			if prog == nil {
				t.Fatal("nil program with nil error")
			}
			if len(lex) > 0 {
				t.Fatalf("no errors reported, but a full scan reports %d, first %v", len(lex), lex[0])
			}
			return
		}
		var list ErrorList
		if !errors.As(err, &list) {
			t.Fatalf("error %T is not an ErrorList: %v", err, err)
		}
		for _, e := range list {
			if e.Pos.Line < 1 {
				t.Fatalf("syntax error %q at invalid line %d", e.Msg, e.Pos.Line)
			}
		}
		if len(list) < len(lex) {
			t.Fatalf("%d errors reported, but a full scan alone reports %d", len(list), len(lex))
		}
		for i, e := range lex {
			if list[i].Pos != e.Pos || list[i].Msg != e.Msg {
				t.Fatalf("error %d is %v, but a full scan's is %v", i, list[i], e)
			}
		}
	})
}
