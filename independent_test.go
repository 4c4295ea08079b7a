package hpfperf_test

// Acceptance tests for the INDEPENDENT directive pipeline: a proven
// annotation is honored by the compiler (the DO loop is partitioned, so
// the prediction drops the serialization penalty and gets strictly
// lower), a refuted annotation is an error-severity HPF0501 diagnostic,
// and an unprovable one is warned about and left sequential. The
// refutable programs live inline — TestLintCorpusClean requires every
// checked-in .hpf file to stay free of error-severity findings.

import (
	"strings"
	"testing"

	"hpfperf"
	"hpfperf/internal/corpus"
)

// stencilSrc builds the same block-distributed first-order recurrence-free
// stencil with and without the INDEPENDENT annotation on its DO loop.
func stencilSrc(annotated bool) string {
	dir := ""
	if annotated {
		dir = "!HPF$ INDEPENDENT\n"
	}
	return `PROGRAM INDEP
PARAMETER (N = 1024)
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (K=1:N) B(K) = REAL(K)
` + dir + `DO I = 1, N
  A(I) = B(I) * 2.0 + 1.0
END DO
PRINT *, A(1)
END PROGRAM INDEP
`
}

func predictUS(t *testing.T, src string) float64 {
	t.Helper()
	prog, err := hpfperf.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	pred, err := hpfperf.Predict(prog, nil)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	return pred.Microseconds()
}

// TestIndependentLowersPrediction is the acceptance criterion: the same
// program with a provable INDEPENDENT loop predicts strictly lower time
// than without the directive, because the proven loop is partitioned
// (N/P trips per processor) instead of serialized (N trips plus
// element fetches on every processor).
func TestIndependentLowersPrediction(t *testing.T) {
	plain := predictUS(t, stencilSrc(false))
	annotated := predictUS(t, stencilSrc(true))
	if !(annotated < plain) {
		t.Fatalf("INDEPENDENT did not lower the prediction: annotated %.3fus, plain %.3fus", annotated, plain)
	}
	// The win must be structural (partitioned trips), not noise: with 4
	// processors the loop body work should shrink by well over 2x.
	if annotated > plain*0.9 {
		t.Errorf("INDEPENDENT win too small to be structural: annotated %.3fus vs plain %.3fus", annotated, plain)
	}
}

// TestIndependentDiagnostics pins the four HPF05xx verdict codes.
func TestIndependentDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
		not  []string
	}{
		{
			name: "proven",
			body: "!HPF$ INDEPENDENT\nDO I = 1, N\n  A(I) = B(I) * 2.0\nEND DO\n",
			want: "HPF0503",
			not:  []string{"HPF0501", "HPF0502"},
		},
		{
			name: "refuted recurrence",
			body: "!HPF$ INDEPENDENT\nDO I = 2, N\n  A(I) = A(I - 1) + 1.0\nEND DO\n",
			want: "HPF0501",
			not:  []string{"HPF0503"},
		},
		{
			name: "refuted scalar accumulation",
			body: "!HPF$ INDEPENDENT\nDO I = 1, N\n  S = S + A(I)\nEND DO\n",
			want: "HPF0501",
			not:  []string{"HPF0503"},
		},
		{
			name: "unprovable bound",
			body: "M = NP * 100\n!HPF$ INDEPENDENT\nDO I = 1, M\n  S = A(I)\n  B(I) = S\nEND DO\n",
			want: "HPF0502",
			not:  []string{"HPF0501", "HPF0503"},
		},
		{
			name: "proven forall",
			body: "!HPF$ INDEPENDENT\nFORALL (K=1:N) A(K) = B(K) + 1.0\n",
			want: "HPF0504",
			not:  []string{"HPF0501", "HPF0502", "HPF0503"},
		},
		{
			name: "proven forall skipping a copy",
			body: "!HPF$ INDEPENDENT\nFORALL (K=1:128) A(K) = A(K+128) + 1.0\n",
			want: "HPF0503",
			not:  []string{"HPF0501", "HPF0502", "HPF0504"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := `PROGRAM D
PARAMETER (N = 256)
REAL A(N), B(N)
REAL S
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (K=1:N) B(K) = 1.0
FORALL (K=1:N) A(K) = 1.0
S = 0.0
NP = 4
` + c.body + `PRINT *, A(1)
END PROGRAM D
`
			diags, err := hpfperf.Analyze(src)
			if err != nil {
				t.Fatalf("analyze: %v\n%s", err, src)
			}
			var codes []string
			for _, d := range diags {
				codes = append(codes, d.Code)
			}
			joined := strings.Join(codes, " ")
			if !strings.Contains(joined, c.want) {
				t.Errorf("want %s in diagnostics, got: %v", c.want, diags)
			}
			for _, n := range c.not {
				if strings.Contains(joined, n) {
					t.Errorf("unwanted %s in diagnostics: %v", n, diags)
				}
			}
			if c.want == "HPF0501" {
				for _, d := range diags {
					if d.Code == "HPF0501" && d.Severity.String() != "error" {
						t.Errorf("HPF0501 severity %s, want error", d.Severity)
					}
				}
			}
		})
	}
}

// loopSrc wraps one loop in the block-distributed program of
// stencilSrc.
func loopSrc(loop string) string {
	return `PROGRAM LOOP
PARAMETER (N = 1024)
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (K=1:N) B(K) = REAL(K)
` + loop + `PRINT *, A(1)
END PROGRAM LOOP
`
}

// TestIndependentVerdictMatchesPrediction holds the INDEPENDENT
// diagnostics to what the compiler did: a proven annotation draws
// HPF0503 exactly when the annotated program predicts strictly less
// than the same program without the directive, and HPF0504 exactly when
// the two predict the same (the DO stayed sequential, or the FORALL
// needed no copy). The programs are the seed-42 corpus's annotated ones,
// proven DOs whose bodies the FORALL lowering cannot take (a nested DO
// and an IF), and proven FORALLs with and without a read that forces
// the evaluate-then-assign copy.
func TestIndependentVerdictMatchesPrediction(t *testing.T) {
	const dir = "!HPF$ INDEPENDENT\n"
	cases := map[string]string{
		"nested DO":      loopSrc(dir + "DO I = 1, N\n  DO J = 1, 8\n    A(I) = B(I) * REAL(J)\n  END DO\nEND DO\n"),
		"IF body":        loopSrc(dir + "DO I = 1, N\n  IF (B(I) > 2.0) THEN\n    A(I) = B(I)\n  END IF\nEND DO\n"),
		"FORALL no copy": loopSrc(dir + "FORALL (K=1:N) A(K) = B(K) + 1.0\n"),
		"FORALL copy":    loopSrc(dir + "FORALL (K=1:512) A(K) = A(K+512) + 1.0\n"),
	}
	for _, p := range corpus.Generate(42, 200) {
		if p.Indep != 0 {
			cases[p.Name] = p.Source
		}
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			annotated := predictUS(t, src)
			plain := predictUS(t, strings.ReplaceAll(src, dir, ""))
			diags, err := hpfperf.Analyze(src)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			codes := map[string]bool{}
			for _, d := range diags {
				codes[d.Code] = true
			}
			proven := codes["HPF0503"] || codes["HPF0504"]
			switch {
			case annotated > plain:
				t.Fatalf("INDEPENDENT raised the prediction: annotated %.3fus, plain %.3fus", annotated, plain)
			case codes["HPF0503"] != (annotated < plain):
				t.Errorf("HPF0503 reported %v, but annotated %.3fus vs plain %.3fus: %v", codes["HPF0503"], annotated, plain, diags)
			case proven && codes["HPF0504"] != (annotated == plain):
				t.Errorf("HPF0504 reported %v, but annotated %.3fus vs plain %.3fus: %v", codes["HPF0504"], annotated, plain, diags)
			}
		})
	}
}

// TestIndependentParserErrors pins the directive's placement rules.
func TestIndependentParserErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			name: "must precede a loop",
			src:  "PROGRAM P\nREAL X\n!HPF$ INDEPENDENT\nX = 1.0\nEND PROGRAM P\n",
			want: "INDEPENDENT directive must immediately precede a DO or FORALL",
		},
		{
			name: "no do while",
			src:  "PROGRAM P\nREAL X\nX = 0.0\n!HPF$ INDEPENDENT\nDO WHILE (X < 4.0)\nX = X + 1.0\nEND DO\nEND PROGRAM P\n",
			want: "cannot apply to DO WHILE",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := hpfperf.Compile(c.src)
			if err == nil {
				t.Fatalf("want compile error mentioning %q, got success", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
