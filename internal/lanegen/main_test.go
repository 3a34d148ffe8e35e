package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
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
// over groups of four points (32 bytes) at the AVX level and of eight
// (64 bytes) at the AVX-512 one, skipping the loop for zero groups. The
// one if is the compare-and-blend if v > r { r = v }: greater than,
// one assignment, no else, which lowers to VCMPPD and VBLENDVPD, and
// to VCMPPD into opmask K1 and VBLENDMPD on ZMM registers, and never to
// VMAXPD, whose result differs from Go's for NaN and zeros.
func TestSubset(t *testing.T) {
	twelve := "a, b, c, d, e, f, x, h, y, j, k, l *[1]float64"
	ifBody := func(cond, then string) string {
		return "func k(r *[2]float64, s float64) { a := r[0]; b := r[1]; " + cond + " { " + then + " }; r[0] = a }"
	}
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
		{"func k(o, groups *[1]float64) { o[0] = groups[0] }", true, "groups names the group count of the row assembly"},
		{"func k(o, done *[1]float64) { o[0] = done[0] }", true, "done names a local of the row wrapper"},
		{"func k(o, g *[1]float64) { o[0] = g[0] }", false, "g names the goroutine register"},
		{"func k(o *[1]float64) { i := o[0]; o[0] = i * i }", true, "i names a local of the row wrapper"},
		{"func k(o *[1]float64) { o[1] = 1.0 }", true, "index 1 out of range [0,1)"},
		{ifBody("if b > a", "a = b"), false, ""},
		{ifBody("if s > a", "a = s"), false, ""},
		{"func k(o, p *[1]float64, s float64) { a := p[0]; if s > a { a = s }; o[0] = a }", true, ""},
		{ifBody("if b >= a", "a = b"), false, "the only if is if v > r { r = v }"},
		{ifBody("if b < a", "a = b"), false, "the only if is if v > r { r = v }"},
		{ifBody("if b > a", "a = b } else { a = s"), false, "the only if is if v > r { r = v }"},
		{ifBody("if b > a", "a = b; a = s"), false, "the only if is if v > r { r = v }"},
		{ifBody("if b > a", "b = a"), false, "the only if is if v > r { r = v }"},
		{ifBody("if b > a", "a = s"), false, "the only if is if v > r { r = v }"},
		{ifBody("if c := r[1]; c > a", "a = c"), false, "the only if is if v > r { r = v }"},
		{ifBody("if a > s", "s = a"), false, "s is not a float64 local"},
		{"func k(q *[2]float64) { q[0] = 1.0 }", false, "q names a local of the lane wrapper"},
		{"func k(r *[2]float64) { q := r[0]; r[1] = q }", false, "q names a local of the lane wrapper"},
		{"func k(live *[2]float64) { live[0] = 1.0 }", false, "live names a local of the lane wrapper"},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "k.go", "package p\n"+tc.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		form := lanesForm
		if tc.rows {
			form = rowsForm
		}
		k, err := compile(fset, f.Decls[0].(*ast.FuncDecl), newPool(), form)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.src, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want %q", tc.src, err, tc.err)
		case err == nil && strings.Contains(tc.src, " > "):
			for _, want := range []string{"VCMPPD $0x1e,", "VBLENDVPD ", ", K1\n", "VBLENDMPD "} {
				if !strings.Contains(k.text, want) {
					t.Errorf("%s: no %q in\n%s", tc.src, want, k.text)
				}
			}
			if strings.Contains(k.text, "VMAXPD") {
				t.Errorf("%s: VMAXPD in\n%s", tc.src, k.text)
			}
		}
		if err == nil && tc.rows {
			// The loop: skipped for zero groups, every pointer a group on.
			for _, want := range []string{"CMPQ groups+", "JEQ done", "loop:", "ADDQ $32, AX", "ADDQ $64, AX", "DECQ groups+", "JNE loop", "done:"} {
				if !strings.Contains(k.text, want) {
					t.Errorf("%s: no %q in\n%s", tc.src, want, k.text)
				}
			}
		}
	}
}

// TestChunkForm compiles chunk kernels. A lane's sum (an array the body
// writes) lives in a register from the first column to the last and
// takes each step under the lane mask: one merge-masked instruction
// for s[0] op= y at the AVX-512 level, a blend otherwise; the mask is a
// VPCMPGTD of the lane lengths against the column there and a VCMPPD of
// both as doubles at the AVX level. The indexed load t[ix[0]] is a
// VGATHERDPD under a copy of the mask, into a zeroed register, at the
// AVX-512 level and four scalar loads at the AVX one. Streams step by
// a column of eight lanes at both levels: 64 bytes a float64, 32 an
// int32. Each form outside the subset is refused by name.
func TestChunkForm(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want []string
		err  string
	}{
		{src: "func k(s, a *[1]float64, ix *[1]int32, in []float64) { s[0] += a[0] * in[ix[0]] }",
			want: []string{"VPBROADCASTD R12, Z", "VPCMPGTD ", ", K2\n", "KMOVW K2, K3", "VGATHERDPD (DX)(Y", "*8), K3, Z",
				", K2, Z0\n", "VCVTDQ2PD (R13), Y", "VCMPPD $0x1e, ", "MOVLQSX 12(CX), R13", "VMOVHPD (DX)(R13*8), X",
				"VINSERTF128 $1, X", "VBLENDVPD ", "ADDQ $64, BX", "ADDQ $32, CX", "CMPQ R12, width+40(FP)", "JLT loop"}},
		{src: "func k(s, a *[1]float64, x float64) { s[0] = x * a[0] }",
			want: []string{"VBLENDMPD ", ", K2, Z0\n", "VBLENDVPD "}},
		{src: "func k(s *[1]float64, a *[2]float64) { s[0] += a[1] }", err: "chunk kernel arrays must be *[1]float64 or *[1]int32"},
		{src: "func k(s *[1]float64, in []float64, a *[1]float64) { s[0] += in[0] }", err: "a table is read only at an int32 stream's element"},
		{src: "func k(s *[1]float64, in []float64, a *[1]float64) { s[0] += in[a[0]] }", err: "a table is read only at an int32 stream's element"},
		{src: "func k(s *[1]float64, ix *[1]int32) { s[0] += ix[0] }", err: "an int32 stream is read only as a table's index"},
		{src: "func k(s *[1]float64, in []float64) { s[0] += in }", err: "in is not a float64 local or parameter"},
		{src: "func k(s *[1]float64, width float64) { s[0] += width }", err: "width names a local of the chunk wrapper"},
		{src: "func k(s, k *[1]float64) { s[0] += k[0] }", err: "k names a local of the chunk wrapper"},
		{src: "func k(s, sum_a *[1]float64) { s[0] += sum_a[0] }", err: "sum_a names a local of the chunk wrapper"},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "k.go", "package p\n"+tc.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		k, err := compile(fset, f.Decls[0].(*ast.FuncDecl), newPool(), chunkForm)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.src, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want %q", tc.src, err, tc.err)
		case err == nil:
			for _, want := range tc.want {
				if !strings.Contains(k.text, want) {
					t.Errorf("%s: no %q in\n%s", tc.src, want, k.text)
				}
			}
		}
	}
}

// inPlaceKernel is a lane kernel that reads elements it has written,
// of an array it also reads, and a main that holds its generated
// wrapper, at width 1, to the scalar body on lanes 0 to live-1 and to
// no change at all on the lanes from live on, for every live count.
const inPlaceKernel = `package main

import (
	"fmt"
	"math"
	"os"
)

// k writes r[0] and r[1], reading each back after.
//
//lanegen:lanes
func k(r *[2]float64, a *[3]float64, s float64) {
	r[0] = r[1] * s
	r[1] = r[0] + a[2]
	a[0] = r[1] - a[0]
}

func main() {
	for live := 1; live <= 8; live++ {
		var r [2][8]float64
		var a [3][8]float64
		for q := 0; q < 8; q++ {
			for e := range r {
				r[e][q] = 1 / float64(3+e*8+q)
			}
			for e := range a {
				a[e][q] = 1 / float64(40+e*8+q)
			}
		}
		r0, a0 := r, a
		k8(live, &r, &a, 0.7)
		for q := 0; q < 8; q++ {
			wr, wa := [2]float64{r0[0][q], r0[1][q]}, [3]float64{a0[0][q], a0[1][q], a0[2][q]}
			if q < live {
				k(&wr, &wa, 0.7)
			}
			got := []float64{r[0][q], r[1][q], a[0][q], a[1][q], a[2][q]}
			for i, w := range []float64{wr[0], wr[1], wa[0], wa[1], wa[2]} {
				if math.Float64bits(got[i]) != math.Float64bits(w) {
					fmt.Printf("live %d lane %d: value %d = %v, want %v\n", live, q, i, got[i], w)
					os.Exit(1)
				}
			}
		}
	}
	fmt.Println("ok")
}
`

// TestLanesFormInPlace generates the glue of inPlaceKernel and requires
// its width-1 branch to be the scalar body inlined in place, every p[e]
// read as p[e][q] in a loop over the live lanes, with no lane copied;
// then it builds the glue against a stand-in for internal/simd with
// Width 1 (the stubs of lanes_other.go in place of the assembly) and
// runs inPlaceKernel's main, which fails unless the wrapper computes the
// scalar body's bits on every live lane and leaves every other lane as
// it was.
func TestLanesFormInPlace(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("kernel.go", inPlaceKernel)
	files, err := generate(dir)
	if err != nil {
		t.Fatal(err)
	}
	lanes := string(files["lanes.go"])
	want := `	default:
		for q := 0; q < 8 && q < live; q++ {
			r[0][q] = r[1][q] * s
			r[1][q] = r[0][q] + a[2][q]
			a[0][q] = r[1][q] - a[0][q]
		}
	}
}
`
	if !strings.HasSuffix(lanes, want) {
		t.Errorf("lanes.go does not end in the inlined body:\n%s\nwant its end to be:\n%s", lanes, want)
	}
	for _, copied := range []string{"gatherLane", "scatterLane", "var lane"} {
		if strings.Contains(lanes, copied) {
			t.Errorf("lanes.go copies lanes (%s):\n%s", copied, lanes)
		}
	}
	write("go.mod", "module inplace\n\ngo 1.22\n")
	write("simd/simd.go", "package simd\n\nvar Width = 1\n")
	write("lanes.go", strings.Replace(lanes, `"npbgo/internal/simd"`, `"inplace/simd"`, 1))
	write("lanes_other.go", strings.Replace(string(files["lanes_other.go"]), "//go:build !amd64\n", "", 1))
	cmd := exec.Command(goTool, "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off")
	out, err := cmd.CombinedOutput()
	if err != nil || string(out) != "ok\n" {
		t.Fatalf("go run: %v\n%s", err, out)
	}
}
