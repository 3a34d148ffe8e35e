package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var directive = regexp.MustCompile(`(?m)^//go:generate go run \.\./lanegen$`)

// generated lists the packages next to this one whose go:generate runs
// lanegen.
func generated(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob("../*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var dirs []string
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Dir(p)
		if directive.Match(src) && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	if len(dirs) == 0 {
		t.Fatal("no package runs lanegen")
	}
	return dirs
}

// TestLanesAsmUpToDate regenerates, for each package that runs
// lanegen, the assembly and the row glue from the scalar Go, and
// requires every checked-in file to be byte-identical: an edit to a
// scalar kernel that is not followed by go generate fails here.
func TestLanesAsmUpToDate(t *testing.T) {
	for _, dir := range generated(t) {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			files, err := generate(dir)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range files {
				want, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s is stale: run go generate ./internal/%s", filepath.Join(dir, name), filepath.Base(dir))
				}
			}
		})
	}
}

// TestSubset compiles small kernels: those inside the subset compile,
// and each form outside it is refused with an error naming it. The
// tuples are refused because lanegen lowers a tuple into sequential
// stores, which is Go's evaluate-then-assign only if no right-hand side
// reads what the tuple writes. Row kernels take only *[1]float64 arrays,
// at most twelve of them like lane kernels, and their assembly loops
// over groups of four points, skipping the loop for zero groups.
func TestSubset(t *testing.T) {
	twelve := "a, b, c, d, e, f, x, h, y, j, k, l *[1]float64"
	for _, tc := range []struct {
		src  string
		rows bool
		err  string
	}{
		{"func k(r *[2]float64, s float64) { a, b := r[0], r[1]; r[0] = -a*s + b }", false, ""},
		{"func k(r *[4]float64) { for e := 0; e < 4; e++ { r[e] *= 2.0 } }", false, ""},
		{"func k(r *[2]float64) { r[0], r[1] = r[1], r[0] }", false, "tuple assignment reads what it writes"},
		{"func k(r, s *[2]float64) { r[0], r[1] = s[1], s[0] }", false, "tuple assignment reads what it writes"},
		{"func k(r *[2]float64) { a, b := r[0], r[1]; a, b = b, a; r[0] = a }", false, "tuple assignment reads what it writes"},
		{"func k(r *[2]float64) { r[0] /= r[1] }", false, "unsupported assignment /="},
		{"func k(r *[2]float64) { for e := 0; e <= 1; e++ { r[e] = 1.0 } }", false, "loop condition must be v < hi"},
		{"func k(r *[2]float64) { for e := 0; e < 1; e++ { r[e+1] = 1.0 } }", false, "index must be an int literal or a loop variable"},
		{"func k(r *[2]float64) { r[(1)] = 1.0 }", false, "index must be an int literal or a loop variable"},
		{"func k(o, a, b *[1]float64, s float64) { o[0] += s * (a[0] - 2.0*b[0]) }", true, ""},
		{"func k(" + twelve + ") { a[0] = b[0] + c[0] + d[0] + e[0] + f[0] + x[0] + h[0] + y[0] + j[0] + k[0] + l[0] }", true, ""},
		{"func k(" + twelve + ", m *[1]float64) { a[0] = m[0] }", true, "too many array parameters"},
		{"func k(" + twelve + ", m *[2]float64) { a[0] = m[0] }", false, "too many array parameters"},
		{"func k(o *[2]float64) { o[0] = 1.0 }", true, "row kernel arrays must be *[1]float64"},
		{"func k(o, a *[1]float64, s float64) { o[0] = math.Sqrt(s * a[0]) }", true, ""},
		{"func k(o, a *[1]float64) { o[0] = math.Exp(a[0]) }", true, "the only call is math.Sqrt(x)"},
		{"func k(o, groups *[1]float64) { o[0] = groups[0] }", true, "groups names a local of the row wrapper"},
		{"func k(o, g *[1]float64) { o[0] = g[0] }", false, "g names the goroutine register"},
		{"func k(o *[1]float64) { i := o[0]; o[0] = i * i }", true, "i names a local of the row wrapper"},
		{"func k(o *[1]float64) { o[1] = 1.0 }", true, "index 1 out of range [0,1)"},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "k.go", "package p\n"+tc.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		k, err := compile(fset, f.Decls[0].(*ast.FuncDecl), newPool(), tc.rows)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.src, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want %q", tc.src, err, tc.err)
		case err == nil && tc.rows:
			// The loop: skipped for zero groups, every pointer a group on.
			for _, want := range []string{"CMPQ groups+", "JEQ done", "loop:", "ADDQ $32, AX", "DECQ groups+", "JNE loop", "done:"} {
				if !strings.Contains(k.text, want) {
					t.Errorf("%s: no %q in\n%s", tc.src, want, k.text)
				}
			}
		}
	}
}
