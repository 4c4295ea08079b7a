package scanner

import (
	"os"
	"path/filepath"
	"testing"

	"hpfperf/internal/suite"
	"hpfperf/internal/token"
)

// seedCorpus gathers the checked-in example programs and the generated
// validation-suite sources as fuzz seeds, so mutation starts from real
// HPF/Fortran 90D rather than random bytes.
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
	// Edge shapes that line/column arithmetic tends to get wrong.
	f.Add("")
	f.Add("\n")
	f.Add("      X = 1.0E")
	f.Add("!HPF$ DISTRIBUTE")
	f.Add("      S = 'unterminated")
	f.Add("      X = 1.\r\n      Y = 2.")
}

// FuzzScanner asserts the lexer never panics and that every token and
// diagnostic it produces carries a valid source position.
func FuzzScanner(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		toks, errs := scanAll(src)
		for _, tok := range toks {
			if tok.Pos.Line < 1 {
				t.Fatalf("token %v at invalid line %d", tok.Kind, tok.Pos.Line)
			}
		}
		for _, e := range errs {
			if e.Pos.Line < 1 {
				t.Fatalf("diagnostic %q at invalid line %d", e.Msg, e.Pos.Line)
			}
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != token.EOF {
			t.Fatalf("token stream does not end in EOF (%d tokens)", len(toks))
		}
	})
}
