package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLanesAsmUpToDate regenerates the lane kernels from the scalar Go
// into a temporary directory and requires the checked-in
// lanes_amd64.s to be byte-identical: an edit to a scalar kernel that
// is not followed by go generate ./internal/bt fails here.
func TestLanesAsmUpToDate(t *testing.T) {
	out := filepath.Join(t.TempDir(), "lanes_amd64.s")
	if err := run("..", out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../lanes_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("internal/bt/lanes_amd64.s is stale: run go generate ./internal/bt")
	}
}

// TestSubset compiles small kernels: those inside the subset compile,
// and each form outside it is refused with an error naming it. The
// tuples are refused because lanegen lowers a tuple into sequential
// stores, which is Go's evaluate-then-assign only if no right-hand side
// reads what the tuple writes.
func TestSubset(t *testing.T) {
	for _, tc := range []struct{ src, err string }{
		{"func k(r *[2]float64, s float64) { a, b := r[0], r[1]; r[0] = -a*s + b }", ""},
		{"func k(r *[4]float64) { for e := 0; e < 4; e++ { r[e] *= 2.0 } }", ""},
		{"func k(r *[2]float64) { r[0], r[1] = r[1], r[0] }", "tuple assignment reads what it writes"},
		{"func k(r, s *[2]float64) { r[0], r[1] = s[1], s[0] }", "tuple assignment reads what it writes"},
		{"func k(r *[2]float64) { a, b := r[0], r[1]; a, b = b, a; r[0] = a }", "tuple assignment reads what it writes"},
		{"func k(r *[2]float64) { r[0] /= r[1] }", "unsupported assignment /="},
		{"func k(r *[2]float64) { for e := 0; e <= 1; e++ { r[e] = 1.0 } }", "loop condition must be v < hi"},
		{"func k(r *[2]float64) { for e := 0; e < 1; e++ { r[e+1] = 1.0 } }", "index must be an int literal or a loop variable"},
		{"func k(r *[2]float64) { r[(1)] = 1.0 }", "index must be an int literal or a loop variable"},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "k.go", "package p\n"+tc.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = compile(fset, f.Decls[0].(*ast.FuncDecl), newPool())
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.src, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want %q", tc.src, err, tc.err)
		}
	}
}
