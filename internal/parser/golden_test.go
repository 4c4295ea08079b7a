package parser_test

// The parse golden pins the parser's full output — the AST, with each
// node's type, and the complete error list — over the repository's HPF
// inputs, the validation-suite sources, every checked-in FuzzScanner and
// FuzzParser corpus file, a slice of the kernel corpus and hand-written
// error shapes. Any change to how the parser gets its tokens must leave it
// byte-identical. Regenerate only when the grammar or its diagnostics
// change on purpose:
//
//	go test ./internal/parser -run TestParseGolden -update

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hpfperf/internal/corpus"
	"hpfperf/internal/parser"
	"hpfperf/internal/suite"
	"hpfperf/internal/token"
)

var update = flag.Bool("update", false, "rewrite the parse golden with current output")

const parseGoldenPath = "testdata/parse.golden"

// manyErrors has more than 50 lexical and syntax errors together: every
// line carries an illegal character and a stray ')'.
var manyErrors = "PROGRAM P\n" + strings.Repeat("X = ) @ 1\n", 40) + "END\n"

// edgeCases are the error shapes a streaming parser gets wrong most
// easily: lexical errors after END, lexical errors after the first syntax
// error, and the cascade cap over both kinds.
var edgeCases = []parseCase{
	{"edge/illegal-after-end", "PROGRAM P\nX = 1\nEND\nY = @"},
	{"edge/lexical-after-syntax", "PROGRAM P\nX = = 1\nY = 1\nZ = 'open\nW = .BOGUS. 2\nEND\n"},
	{"edge/over-fifty", manyErrors},
	{"edge/over-fifty-no-end", strings.TrimSuffix(manyErrors, "END\n")},
	// The first syntax error already passes the cap through the lexical
	// errors of the continuation lines after it, so its statement bails
	// out after the first of its two bad literals.
	{"edge/cap-counts-later-lexical", "PROGRAM P\nX = 99999999999999999999 + 99999999999999999999\n" +
		strings.Repeat("Y = 1 & a\n + 1\n", 55) + "END\n"},
}

type parseCase struct {
	name string
	src  string
}

func parseCases(t *testing.T) []parseCase {
	t.Helper()
	var out []parseCase
	for _, pat := range []string{"testdata/*.hpf", "examples/*/*.hpf"} {
		out = append(out, fileCases(t, filepath.Join("..", ".."), pat, false)...)
	}
	for _, prog := range suite.All() {
		n, p := prog.Sizes[0], prog.Procs[0]
		out = append(out, parseCase{name: fmt.Sprintf("suite/%s n=%d p=%d", prog.Name, n, p), src: prog.Source(n, p)})
	}
	out = append(out, fileCases(t, "..", "scanner/testdata/fuzz/FuzzScanner/*", true)...)
	out = append(out, fileCases(t, ".", "testdata/fuzz/FuzzParser/*", true)...)
	for _, p := range corpus.Generate(1, 60) {
		out = append(out, parseCase{name: "corpus/" + p.Name, src: p.Source})
	}
	return append(out, edgeCases...)
}

// fileCases reads the files matching pat under root; fuzz marks files in
// the fuzzing engine's corpus format, whose one argument is the source.
func fileCases(t *testing.T, root, pat string, fuzz bool) []parseCase {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(pat)))
	if err != nil || len(files) == 0 {
		t.Fatalf("no inputs match %s (%v)", pat, err)
	}
	var out []parseCase
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		if fuzz {
			src = fuzzArg(t, f, src)
		}
		rel, _ := filepath.Rel(root, f)
		out = append(out, parseCase{name: filepath.ToSlash(rel), src: src})
	}
	return out
}

// fuzzArg decodes the single string argument of a corpus file written by
// the fuzzing engine ("go test fuzz v1" then `string("...")`).
func fuzzArg(t *testing.T, path, file string) string {
	t.Helper()
	lines := strings.SplitN(strings.TrimSpace(file), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	arg := strings.TrimSpace(lines[1])
	if !strings.HasPrefix(arg, "string(") || !strings.HasSuffix(arg, ")") {
		t.Fatalf("%s: argument is not a string: %s", path, arg)
	}
	s, err := strconv.Unquote(arg[len("string(") : len(arg)-1])
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// dump writes v in a compact nested form that names the type of every
// node: TypeName{Field: value ...}, with positions as @line:col.
// Zero-valued fields are left out; they cannot hide a difference, since a
// field that changes to or from its zero value appears on one side only.
func dump(w *bytes.Buffer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			w.WriteString("nil")
			return
		}
		if v.Kind() == reflect.Pointer {
			w.WriteByte('*')
		}
		dump(w, v.Elem())
	case reflect.Struct:
		if s, ok := v.Interface().(fmt.Stringer); ok {
			w.WriteString(s.String())
			return
		}
		w.WriteString(v.Type().Name())
		w.WriteByte('{')
		first := true
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				continue
			}
			if !first {
				w.WriteByte(' ')
			}
			first = false
			if pos, ok := v.Field(i).Interface().(token.Pos); ok {
				fmt.Fprintf(w, "@%s", pos)
				continue
			}
			w.WriteString(v.Type().Field(i).Name)
			w.WriteString(": ")
			dump(w, v.Field(i))
		}
		w.WriteByte('}')
	case reflect.Slice:
		w.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				w.WriteString(", ")
			}
			dump(w, v.Index(i))
		}
		w.WriteByte(']')
	case reflect.String:
		w.WriteString(strconv.Quote(v.String()))
	case reflect.Float32, reflect.Float64:
		w.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	default:
		if s, ok := v.Interface().(fmt.Stringer); ok {
			w.WriteString(s.String())
			return
		}
		fmt.Fprint(w, v.Interface())
	}
}

// renderParse writes one program's parse: the header fields, one line per
// declaration, directive and statement, then every error.
func renderParse(w *bytes.Buffer, c parseCase) {
	prog, err := parser.Parse(c.src)
	fmt.Fprintf(w, "== %s\n", c.name)
	if prog == nil {
		w.WriteString("program nil\n")
	} else {
		fmt.Fprintf(w, "program %s at %s\n", prog.Name, prog.NamePos)
		for _, d := range prog.Decls {
			w.WriteString("decl ")
			dump(w, reflect.ValueOf(&d).Elem())
			w.WriteByte('\n')
		}
		for _, d := range prog.Directives {
			w.WriteString("directive ")
			dump(w, reflect.ValueOf(&d).Elem())
			w.WriteByte('\n')
		}
		for _, s := range prog.Body {
			w.WriteString("stmt ")
			dump(w, reflect.ValueOf(&s).Elem())
			w.WriteByte('\n')
		}
	}
	if err == nil {
		return
	}
	var list parser.ErrorList
	if !errors.As(err, &list) {
		fmt.Fprintf(w, "error %T %v\n", err, err)
		return
	}
	fmt.Fprintf(w, "errors %d\n", len(list))
	for _, e := range list {
		fmt.Fprintf(w, "  %s\n", e)
	}
}

func TestParseGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range parseCases(t) {
		renderParse(&got, c)
	}
	path := filepath.FromSlash(parseGoldenPath)
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v (run with -update to create)", path, err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			t.Fatalf("%s differs first at line %d:\n-%s\n+%s", parseGoldenPath, i+1, wl, gl)
		}
	}
}
