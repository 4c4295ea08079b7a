package compiler

import (
	"strings"
	"testing"
)

// TestDiagnostics documents the error behaviour of the whole frontend:
// each invalid program must be rejected with a message containing the
// expected fragment (and a source position).
func TestDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			"syntax error",
			"PROGRAM p\nX = )\nEND",
			"unexpected",
		},
		{
			"missing end",
			"PROGRAM p\nX = 1\n",
			"END",
		},
		{
			"unknown function",
			"PROGRAM p\nX = NOPE(1)\nEND",
			"neither a declared array nor a supported intrinsic",
		},
		{
			"concatenation",
			"PROGRAM p\nX = 0 // 0\nEND",
			"concatenation",
		},
		{
			"rank mismatch",
			"PROGRAM p\nREAL A(4,4)\nX = A(1)\nEND",
			"rank",
		},
		{
			"non conforming",
			"PROGRAM p\nREAL A(4), B(5)\nA = B\nEND",
			"non-conforming",
		},
		{
			"assign to constant",
			"PROGRAM p\nPARAMETER (N=3)\nN = 4\nEND",
			"constant",
		},
		{
			"implicit none",
			"PROGRAM p\nIMPLICIT NONE\nZ = 1.0\nEND",
			"not declared",
		},
		{
			"array bound not constant",
			"PROGRAM p\nREAL A(M)\nA(1) = 0.0\nEND",
			"bound",
		},
		{
			"duplicate template",
			"PROGRAM p\nREAL A(4)\n!HPF$ TEMPLATE T(4)\n!HPF$ TEMPLATE T(4)\nA(1) = 0.0\nEND",
			"twice",
		},
		{
			"multiple processors",
			"PROGRAM p\n!HPF$ PROCESSORS P(2)\n!HPF$ PROCESSORS Q(2)\nX = 1.0\nEND",
			"multiple PROCESSORS",
		},
		{
			"distribute unknown target",
			"PROGRAM p\n!HPF$ PROCESSORS P(2)\n!HPF$ DISTRIBUTE Z(BLOCK) ONTO P\nX = 1.0\nEND",
			"not a template or array",
		},
		{
			"distribute format count",
			"PROGRAM p\nREAL A(4,4)\n!HPF$ PROCESSORS P(2)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\nA(1,1) = 0.0\nEND",
			"formats",
		},
		{
			"onto unknown grid",
			"PROGRAM p\nREAL A(4)\n!HPF$ PROCESSORS P(2)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO Q\nA(1) = 0.0\nEND",
			"unknown processor arrangement",
		},
		{
			"align bad subscript",
			"PROGRAM p\nREAL A(4)\n!HPF$ PROCESSORS P(2)\n!HPF$ TEMPLATE T(4)\n!HPF$ ALIGN A(I) WITH T(I*2)\n!HPF$ DISTRIBUTE T(BLOCK) ONTO P\nA(1) = 0.0\nEND",
			"unsupported target subscript",
		},
		{
			"align outside template",
			"PROGRAM p\nREAL A(9)\n!HPF$ PROCESSORS P(2)\n!HPF$ TEMPLATE T(4)\n!HPF$ ALIGN A(I) WITH T(I)\n!HPF$ DISTRIBUTE T(BLOCK) ONTO P\nA(1) = 0.0\nEND",
			"outside template",
		},
		{
			"forall non assignment",
			"PROGRAM p\nREAL A(8)\nFORALL (K=1:8)\nPRINT *, A(K)\nEND FORALL\nEND",
			"only assignments",
		},
		{
			"forall mask type",
			"PROGRAM p\nREAL A(8)\nFORALL (K=1:8, A(K)) A(K) = 0.0\nEND",
			"LOGICAL",
		},
		{
			"where scalar mask",
			"PROGRAM p\nREAL A(8)\nLOGICAL B\nWHERE (B)\nA = 0.0\nEND WHERE\nEND",
			"array",
		},
		{
			"call unsupported",
			"PROGRAM p\nCALL FOO(1)\nEND",
			"outside the supported subset",
		},
		{
			"print whole array",
			"PROGRAM p\nREAL A(4)\nPRINT *, A\nEND",
			"whole arrays",
		},
		{
			"cshift non array",
			"PROGRAM p\nREAL A(4), B(4)\n!HPF$ PROCESSORS P(2)\nB = CSHIFT(A + A, 1)\nEND",
			"whole array",
		},
		{
			"cshift bad dim",
			"PROGRAM p\nREAL A(4), B(4)\nB = CSHIFT(A, 1, 2)\nEND",
			"out of range",
		},
		{
			"nested reduction",
			"PROGRAM p\nREAL A(8), B(8)\n!HPF$ PROCESSORS P(2)\nFORALL (K=1:8) A(K) = SUM(B(1:K))\nEND",
			"nested",
		},
		{
			"maxloc rank",
			"PROGRAM p\nREAL A(4,4)\nK = MAXLOC(A)\nEND",
			"rank-1",
		},
		{
			"while reading distributed",
			"PROGRAM p\nREAL A(8)\n!HPF$ PROCESSORS P(2)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\nDO WHILE (A(1) .GT. 0.0)\nX = 1.0\nEND DO\nEND",
			"DO WHILE condition",
		},
		{
			"strided distributed section",
			"PROGRAM p\nREAL A(8)\n!HPF$ PROCESSORS P(2)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\nA(1:8:2) = 0.0\nEND",
			"unit-stride",
		},
		{
			"size of non array",
			"PROGRAM p\nX = SIZE(Y)\nEND",
			"not an array",
		},
		{
			"size bad dim",
			"PROGRAM p\nREAL A(4)\nX = SIZE(A, 3)\nEND",
			"dimension",
		},
		{
			"block too small",
			"PROGRAM p\nREAL A(32)\n!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE A(BLOCK(2)) ONTO P\nA(1) = 0.0\nEND",
			"cannot hold",
		},
		{
			"cyclic block size",
			"PROGRAM p\nREAL A(32)\n!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE A(CYCLIC(0)) ONTO P\nA(1) = 0.0\nEND",
			"CYCLIC block size",
		},
		{
			"forall index conflict",
			"PROGRAM p\nREAL K(8)\nFORALL (K=1:8) X = 0.0\nEND",
			"conflicts",
		},
		{
			"assignment to loop index",
			"PROGRAM p\nDO I = 1, 4\nI = 2\nEND DO\nEND",
			"loop index",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil {
				t.Fatalf("program compiled but should fail:\n%s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err.Error(), tc.want)
			}
		})
	}
}
