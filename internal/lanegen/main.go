// Command lanegen compiles a package's scalar Go kernels into 8-lane
// AVX-512 and 4-lane AVX assembly, lanes_amd64.s, and writes the Go glue
// around it. Run it from the package directory, as go generate does for
// each package that names it:
//
//	//go:generate go run ../lanegen
//
// A kernel is a function whose doc comment ends in one of two markers:
//
//   - //lanegen:lanes — eight independent instances side by side: each
//     *[N]float64 parameter becomes a *[N][8]float64 (lane q of element
//     e at e*64+q*8). <name>AVX512 runs the body once for all eight, and
//     <name>AVX, which steps over the elements at the same 64-byte
//     stride, once for four of them. Its wrapper <name>8(live, ...)
//     runs at least lanes 0 to live-1: the first at simd.Width 8 when
//     live > 4, otherwise at width 4 or 8 the second on lanes 0-3 and,
//     when live > 4, on 4-7, and at width 1 the scalar body on each of
//     the live lanes, each array gathered into a copy first and the
//     arrays the body writes scattered back, so an array a lane kernel
//     writes must not overlap another of its arrays.
//   - //lanegen:rows — a point kernel over *[1]float64 parameters, one
//     element of each of several rows. <name>AVX512 runs the body on
//     eight consecutive points per group, advancing every array pointer
//     by 64 bytes a group, and <name>AVX on four, by 32 bytes, each for
//     a group count that may be 0. Its wrapper <name>Row takes slices
//     (one point per element), runs the groups of eight the width
//     allows, then one group of four if four points are left, and then
//     the scalar body on the rest, inlined with every a[0] read as a[i].
//   - //lanegen:chunk — one column's step of eight rows of a sliced
//     ELLPACK chunk, a row a lane. A *[1]float64 the body writes is a
//     lane's sum: one value a lane, held in a register from the first
//     column to the last. A *[1]float64 or *[1]int32 it only reads is a
//     stream of the chunk's columns, element c of lane q at [8*c+q]. A
//     []float64 is a table, read only as t[ix[0]] with ix an int32
//     stream: the indexed load. Lane q takes the step at the columns c
//     < lens[q] only; past its end its sums keep their value (a merge
//     mask, not a zero pad). <name>AVX512 runs the eight lanes, with a
//     masked VGATHERDPD, and <name>AVX four, the table's elements loaded
//     one by one; each steps over the columns at the eight lanes' stride.
//     Its wrapper <name>Chunk(lens, ...) runs them up to the longest
//     lane, slicing each stream to that many columns, or at width 1 the
//     scalar body lane by lane, inlined with a sum's s[0] read as s[q]
//     and a stream's a[0] as a[k], k = 8*c+q. Nothing checks an index
//     against its table, and the AVX kernel loads every slot of a
//     column, a lane's padding included: every index in a stream must
//     be in range.
//
// Eight packages run it. bt and sp have lane kernels (their line
// solves), lu both kinds (the blocks and the update of up to eight
// points of an i+j diagonal in its SSOR sweeps, and its right-hand-side
// rows), nscore, ep, ft and mg row kernels: the right-hand sides of
// BT and SP, EP's polar transform, FT's butterflies, MG's residual and
// smoother, and cg a chunk kernel, its sparse mat-vec.
//
// The glue is three files: lanes.go with the wrappers, which choose
// between the assembly levels and the scalar body by internal/simd's
// Width switch, lanes_amd64.go with the assembly's declarations, and
// lanes_other.go with the stubs of every other architecture, where only
// the scalar bodies run.
//
// The scalar Go is the specification. lanegen parses each kernel's body
// and emits one packed instruction per scalar operation, visiting every
// expression tree in Go's order, so lane q of every result is the
// double the scalar kernel computes on lane q's inputs. Both levels are
// one instruction sequence, on YMM or on ZMM registers (the blend
// apart, below). Nothing is fused, reassociated or folded: a + and a *
// keep their operands (only swapped, which IEEE addition and
// multiplication do not notice), and unary minus flips the sign bit
// (VXORPD), as the scalar negation does, where 0-x would turn -0 into
// +0. Every array element read is a load from memory at that point of
// the statement list, so parameters that alias the same row read what
// earlier statements stored.
//
// The subset it accepts is what the kernels use:
//   - parameters: pointers to fixed-size float64 arrays (at most 12,
//     10 in a chunk kernel, whose own loop takes two registers), and
//     float64 scalars, broadcast to every lane; a chunk kernel's int32
//     streams and tables besides;
//   - float64 locals (:= and =, one or several at once; a tuple may not
//     read what it writes, nor read an array element while writing one,
//     since array parameters may alias);
//   - array elements indexed by an int literal or a loop variable, float
//     literals (a DATA pool),
//   - - * /, unary minus, math.Sqrt and +=, -=, *=;
//   - if v > r { r = v }, with r a local and v a local or a float64
//     parameter: a compare (greater than, ordered) and a blend, so r
//     keeps its value when either is NaN and when both are zeros, as in
//     Go, where VMAXPD would return its second operand;
//   - for v := lo; v < hi; v++ loops with literal bounds, unrolled.
//
// Anything else is an error naming the position. The AVX kernels use
// AVX1 instructions only: VMOVUPD, VBROADCASTSD, VADDPD, VSUBPD, VMULPD,
// VDIVPD, VSQRTPD, VXORPD, VCMPPD, VBLENDVPD and VZEROUPPER, and in a
// chunk kernel VCVTDQ2PD for the lane lengths, a VCMPPD of them against
// the column for the mask, and for the indexed load MOVLQSX, VMOVSD,
// VMOVHPD and VINSERTF128. The AVX-512 kernels use the same on ZMM
// registers (VXORPD there is AVX512DQ), except that the compare writes
// opmask K1 and VBLENDMPD blends under it; a chunk kernel's mask is a
// VPCMPGTD of the lane lengths (VMOVDQU) against the column
// (VPBROADCASTD) into K2, its indexed load a VGATHERDPD under a KMOVW
// copy of it, and its sums take each step merge-masked under K2. Both
// allocate registers 0-15 only, so the closing VZEROUPPER leaves no
// upper state dirty. Which level runs is internal/simd's decision, made
// once at start-up.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// form is a kernel's shape, named by its marker, the last line of its
// doc comment.
type form int

const (
	lanesForm form = iota
	rowsForm
	chunkForm
)

var markers = map[string]form{"//lanegen:lanes": lanesForm, "//lanegen:rows": rowsForm, "//lanegen:chunk": chunkForm}

func main() {
	if err := run(".", "."); err != nil {
		fmt.Fprintln(os.Stderr, "lanegen:", err)
		os.Exit(1)
	}
}

// run compiles the kernels found in dir's non-test Go files and writes
// the generated files into out.
func run(dir, out string) error {
	files, err := generate(dir)
	if err != nil {
		return err
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(out, name), src, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// kernel is one compiled kernel.
type kernel struct {
	name   string
	form   form
	params []*param
	text   string // its TEXT blocks, one per level
	loop   string // a row or chunk kernel's body inlined into its wrapper: the portable path
}

// width is a vector level the emitter writes each kernel at.
type width struct {
	reg    string // register prefix: Y (256 bits) or Z (512)
	lanes  int    // doubles per register; a row kernel's pointers advance 8*lanes bytes a group
	suffix string // the assembly kernel is <name><suffix>
}

// levels are the widths every kernel is emitted at, narrowest first. A
// lane kernel's arrays hold lanes lanes, as many as the widest level's
// register: the 4-lane kernel steps over their elements at the same
// stride and runs on each half of the lanes in turn.
var levels = []width{
	{reg: "Y", lanes: 4, suffix: "AVX"},
	{reg: "Z", lanes: 8, suffix: "AVX512"},
}

// lanes is the lane count of a lane kernel's arrays, and stride the
// bytes between their elements at every level.
const (
	lanes  = 8
	stride = 8 * lanes
)

// arrayType is the assembly form's Go type of an array or table
// parameter: a row or chunk kernel's, and a lane kernel's at a level
// that runs part of the lanes, are the pointer to their first element.
func (w width) arrayType(f form, p *param) string {
	switch {
	case p.int32:
		return "*int32"
	case f != lanesForm || w.lanes < lanes:
		return "*float64"
	}
	return fmt.Sprintf("*[%d][%d]float64", p.array, lanes)
}

// generate returns the generated files for the kernels in dir, by name:
// lanes_amd64.s and the Go glue.
func generate(dir string) (map[string][]byte, error) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	pkg := ""
	var found []*ast.FuncDecl
	var forms []form
	files := map[string]bool{}
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg = f.Name.Name
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			f, ok := markers[fd.Doc.List[len(fd.Doc.List)-1].Text]
			if !ok {
				continue
			}
			forms = append(forms, f)
			if fd.Recv != nil {
				return nil, fmt.Errorf("%s: kernel %s is a method", fset.Position(fd.Pos()), fd.Name.Name)
			}
			found = append(found, fd)
			files[filepath.Base(p)] = true
		}
	}
	if len(found) == 0 {
		return nil, fmt.Errorf("no kernels marked //lanegen:lanes, rows or chunk in %s", dir)
	}
	pool := newPool()
	var body bytes.Buffer
	var kernels []*kernel
	for i, fd := range found {
		k, err := compile(fset, fd, pool, forms[i])
		if err != nil {
			return nil, err
		}
		body.WriteString(k.text)
		kernels = append(kernels, k)
	}
	var names []string
	for f := range files {
		names = append(names, f)
	}
	sort.Strings(names)
	from := strings.Join(names, " and ")

	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by lanegen from %s; DO NOT EDIT.\n\n", from)
	b.WriteString("#include \"textflag.h\"\n\n")
	b.WriteString("// Eight copies of each constant, one a lane of the widest register (a\n")
	b.WriteString("// YMM kernel reads the first four): the sign mask, then the literals.\n")
	for i, bits := range pool.bits {
		for q := 0; q < lanes; q++ {
			fmt.Fprintf(&b, "DATA lanesconst<>+%d(SB)/8, $0x%016x\n", 8*lanes*i+8*q, bits)
		}
	}
	fmt.Fprintf(&b, "GLOBL lanesconst<>(SB), RODATA|NOPTR, $%d\n", 8*lanes*len(pool.bits))
	b.Write(body.Bytes())
	out := glue(pkg, from, kernels)
	out["lanes_amd64.s"] = b.Bytes()
	return out, nil
}

// pool is the DATA table of broadcast constants, a copy for each of the
// lanes.
type pool struct {
	bits []uint64
	at   map[uint64]int
}

func newPool() *pool {
	p := &pool{at: map[uint64]int{}}
	p.ref(1 << 63) // the sign mask, entry 0
	return p
}

// ref returns the memory operand of the copies of bits.
func (p *pool) ref(bits uint64) string {
	i, ok := p.at[bits]
	if !ok {
		i = len(p.bits)
		p.bits = append(p.bits, bits)
		p.at[bits] = i
	}
	return fmt.Sprintf("lanesconst<>+%d(SB)", 8*lanes*i)
}

// The kernel IR: a flat list of assignments whose right-hand sides are
// trees over these leaves.
type (
	expr  interface{}
	lit   struct{ v float64 }
	local struct{ name string }
	scal  struct{ p *param } // float64 parameter
	elem  struct {
		p *param
		i int
	}
	index struct{ t, ix *param } // t[ix[0]]: a chunk kernel's indexed load
	neg   struct{ x expr }
	sqrt  struct{ x expr }    // math.Sqrt, correctly rounded like VSQRTPD
	blend struct{ v, r expr } // v if v > r, else r
	binop struct {
		op   byte // + - * /
		x, y expr
	}
)

type param struct {
	name    string
	array   int  // element count, 0 for a float64 or a table
	int32   bool // an *[1]int32, a chunk kernel's index stream
	table   bool // a []float64, a chunk kernel's table
	off     int  // frame offset
	gp      string
	written bool // an array the body stores to: in a chunk kernel, a lane's sum
}

// pointer reports whether p is passed to the assembly as a pointer,
// held in a general-purpose register.
func (p *param) pointer() bool { return p.array > 0 || p.table }

type stmt struct {
	dst interface{} // local or elem
	x   expr
	pos token.Pos
}

// compiler holds one kernel's translation state.
type compiler struct {
	form   form
	fset   *token.FileSet
	params map[string]*param
	locals map[string]bool
	loops  map[string]int
	stmts  []stmt
}

func (c *compiler) errf(pos token.Pos, format string, args ...interface{}) error {
	return fmt.Errorf("%s: %s", c.fset.Position(pos), fmt.Sprintf(format, args...))
}

var gpRegs = []string{"AX", "BX", "CX", "DX", "SI", "DI", "R8", "R9", "R10", "R11", "R12", "R13"}

// A chunk kernel's column counter and scratch register, the last two of
// gpRegs: the lane lengths' pointer, then each index of the AVX
// kernel's indexed load.
const (
	chunkCol     = "R12"
	chunkScratch = "R13"
)

// compile translates one kernel into its TEXT blocks, one per level: a
// lane kernel's body once, a row kernel's body in a loop over groups of
// points, a chunk kernel's in a loop over a chunk's columns.
func compile(fset *token.FileSet, fd *ast.FuncDecl, pool *pool, f form) (*kernel, error) {
	c := &compiler{form: f, fset: fset, params: map[string]*param{}, locals: map[string]bool{}, loops: map[string]int{}}
	if fd.Type.Results != nil {
		return nil, c.errf(fd.Pos(), "%s: kernels return nothing", fd.Name.Name)
	}
	k := &kernel{name: fd.Name.Name, form: f}
	off, ngp, maxgp := 0, 0, len(gpRegs)
	if f == chunkForm {
		off, maxgp = 8, len(gpRegs)-2 // lens, then the parameters; chunkCol and chunkScratch
	}
	for _, field := range fd.Type.Params.List {
		proto, err := c.paramType(field.Type)
		if err != nil {
			return nil, err
		}
		for _, id := range field.Names {
			if err := c.reserved(id); err != nil {
				return nil, err
			}
			if f == lanesForm && (id.Name == "q" || id.Name == "live" || strings.HasPrefix(id.Name, "lane")) {
				return nil, c.errf(id.Pos(), "%s names a local of the lane wrapper", id.Name)
			}
			p := &param{name: id.Name, array: proto.array, int32: proto.int32, table: proto.table, off: off}
			if p.pointer() {
				if ngp == maxgp {
					return nil, c.errf(id.Pos(), "too many array parameters")
				}
				p.gp = gpRegs[ngp]
				ngp++
			}
			off += 8
			c.params[id.Name] = p
			k.params = append(k.params, p)
		}
	}
	if err := c.block(fd.Body.List); err != nil {
		return nil, err
	}
	for _, s := range c.stmts {
		if e, ok := s.dst.(elem); ok {
			e.p.written = true
		}
	}
	switch f {
	case rowsForm:
		k.loop = c.inline(fd, func(_ *param, ix *ast.IndexExpr) { ix.Index = ast.NewIdent("i") })
	case chunkForm:
		// A lane's sum is a [1]float64 local, which the compiler keeps in
		// a register, as the assembly does.
		k.loop = c.inline(fd, func(p *param, ix *ast.IndexExpr) {
			if p.written {
				ix.X = ast.NewIdent(sumLocal(p))
			} else {
				ix.Index = ast.NewIdent("k")
			}
		})
	}

	uses, lastUse := map[*param]int{}, map[*param]int{}
	var scalars []*param // in order of first read
	for i, s := range c.stmts {
		leaves(s.x, func(l expr) {
			if v, ok := l.(scal); ok {
				if uses[v.p] == 0 {
					scalars = append(scalars, v.p)
				}
				uses[v.p]++
				lastUse[v.p] = i
			}
		})
	}
	frame := off
	if f != lanesForm {
		frame += 8 // the group count or the chunk's width
	}
	for _, w := range levels {
		header := fmt.Sprintf("\n// func %s%s(%s)\nTEXT ·%s%s(SB), NOSPLIT, $0-%d\n", k.name, w.suffix, asmParams(k, w), k.name, w.suffix, frame)
		// A row or chunk kernel broadcasts as many of its scalars as the
		// body leaves registers for once, before the loop, and the rest
		// in it.
		hoist := 0
		if f != lanesForm {
			hoist = len(scalars)
		}
		for {
			text, err := c.emit(k, w, pool, uses, lastUse, scalars[:hoist], off)
			if err == nil {
				k.text += header + text
				break
			}
			if hoist == 0 || !strings.Contains(err.Error(), errNoRegisters) {
				return nil, err
			}
			hoist--
		}
	}
	return k, nil
}

// emit writes the instructions of k's TEXT block at width w: the
// scalars in hoist are broadcast before a row or chunk kernel's loop and
// stay in registers.
func (c *compiler) emit(k *kernel, w width, pool *pool, uses, lastUse map[*param]int, hoist []*param, off int) (string, error) {
	g := &gen{w: w, pool: pool, locals: map[string]int{}, cached: map[*param]int{}, uses: uses, chunk: k.form == chunkForm, sums: map[*param]int{}}
	for i := range g.free {
		g.free[i] = true
	}
	for _, p := range k.params {
		if p.pointer() {
			g.emit("MOVQ %s+%d(FP), %s", p.name, p.off, p.gp)
		}
	}
	if k.form == chunkForm {
		if err := g.chunkStart(k); err != nil {
			return "", err
		}
	}
	if k.form != lanesForm {
		// The group count or the chunk's width stays in its argument
		// slot: every other general-purpose register may hold a pointer.
		count := "groups"
		if k.form == chunkForm {
			count = "width"
		}
		g.emit("CMPQ %s+%d(FP), $0", count, off)
		g.emit("JEQ done")
		for _, p := range hoist {
			r, err := g.alloc()
			if err != nil {
				return "", err
			}
			g.emit("VBROADCASTSD %s+%d(FP), %s", p.name, p.off, g.reg(r))
			g.cached[p] = r
		}
		g.b.WriteString("loop:\n")
		if k.form == chunkForm {
			if err := g.chunkMask(); err != nil {
				return "", err
			}
		}
	}
	held := map[*param]bool{}
	for _, p := range hoist {
		held[p] = true
	}
	freeAfter := c.liveness()
	for i, s := range c.stmts {
		if err := g.stmt(s); err != nil {
			return "", c.errf(s.pos, "%s: %v", k.name, err)
		}
		for _, l := range freeAfter[i] {
			g.release(g.locals[l])
			delete(g.locals, l)
		}
		for p, r := range g.cached {
			if lastUse[p] == i && !held[p] {
				g.release(r)
				delete(g.cached, p)
			}
		}
	}
	switch k.form {
	case rowsForm:
		for _, p := range k.params {
			if p.array > 0 {
				g.emit("ADDQ $%d, %s", 8*w.lanes, p.gp)
			}
		}
		g.emit("DECQ groups+%d(FP)", off)
		g.emit("JNE loop")
		g.b.WriteString("done:\n")
	case chunkForm:
		g.chunkEnd(k, off)
	}
	g.emit("VZEROUPPER")
	g.emit("RET")
	return g.b.String(), nil
}

// paramType accepts float64 and *[N]float64, and in a chunk kernel
// *[1]int32 and []float64, returning a param with only its type set. A
// row or chunk kernel's arrays are *[1]: one point of a row, passed to
// the assembly as the pointer to its first group, or one slot of a
// chunk's column.
func (c *compiler) paramType(t ast.Expr) (*param, error) {
	if id, ok := t.(*ast.Ident); ok && id.Name == "float64" {
		return &param{}, nil
	}
	if at, ok := t.(*ast.ArrayType); ok && at.Len == nil && isName(at.Elt, "float64") && c.form == chunkForm {
		return &param{table: true}, nil
	}
	if st, ok := t.(*ast.StarExpr); ok {
		if at, ok := st.X.(*ast.ArrayType); ok && at.Len != nil {
			if id, ok := at.Elt.(*ast.Ident); ok && (id.Name == "float64" || id.Name == "int32" && c.form == chunkForm) {
				if bl, ok := at.Len.(*ast.BasicLit); ok && bl.Kind == token.INT {
					n, err := strconv.Atoi(bl.Value)
					switch {
					case err != nil || n <= 0:
					case c.form == rowsForm && n != 1:
						return nil, c.errf(t.Pos(), "row kernel arrays must be *[1]float64")
					case c.form == chunkForm && n != 1:
						return nil, c.errf(t.Pos(), "chunk kernel arrays must be *[1]float64 or *[1]int32")
					default:
						return &param{array: n, int32: id.Name == "int32"}, nil
					}
				}
			}
		}
	}
	if c.form == chunkForm {
		return nil, c.errf(t.Pos(), "parameter type must be float64, *[1]float64, *[1]int32 or []float64")
	}
	return nil, c.errf(t.Pos(), "parameter type must be float64 or *[N]float64")
}

// block flattens statements into c.stmts, unrolling loops.
func (c *compiler) block(list []ast.Stmt) error {
	for _, s := range list {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if err := c.assign(s); err != nil {
				return err
			}
		case *ast.ForStmt:
			if err := c.loop(s); err != nil {
				return err
			}
		case *ast.IfStmt:
			if err := c.ifGreater(s); err != nil {
				return err
			}
		default:
			return c.errf(s.Pos(), "unsupported statement")
		}
	}
	return nil
}

func (c *compiler) assign(s *ast.AssignStmt) error {
	var op byte
	switch s.Tok {
	case token.DEFINE, token.ASSIGN:
	case token.ADD_ASSIGN:
		op = '+'
	case token.SUB_ASSIGN:
		op = '-'
	case token.MUL_ASSIGN:
		op = '*'
	default:
		return c.errf(s.Pos(), "unsupported assignment %s", s.Tok)
	}
	if len(s.Lhs) != len(s.Rhs) || (op != 0 && len(s.Lhs) != 1) {
		return c.errf(s.Pos(), "assignment counts must match")
	}
	rhs := make([]expr, len(s.Rhs))
	for i, r := range s.Rhs {
		x, err := c.expr(r)
		if err != nil {
			return err
		}
		rhs[i] = x
	}
	dsts := make([]interface{}, len(s.Lhs))
	for i, l := range s.Lhs {
		d, err := c.dest(l, s.Tok == token.DEFINE)
		if err != nil {
			return err
		}
		dsts[i] = d
		if op != 0 {
			rhs[i] = binop{op: op, x: d, y: rhs[i]}
		}
	}
	// Sequential assignment equals Go's tuple assignment only if no
	// right-hand side reads what the tuple writes.
	if len(dsts) > 1 {
		for _, d := range dsts {
			for _, x := range rhs {
				if clobbers(d, x) {
					return c.errf(s.Pos(), "tuple assignment reads what it writes")
				}
			}
		}
	}
	for i := range dsts {
		c.stmts = append(c.stmts, stmt{dst: dsts[i], x: rhs[i], pos: s.Pos()})
	}
	return nil
}

// ifGreater translates if v > r { r = v }, r a local and v a local or
// a float64 parameter, into a blend of v and r under the mask v > r.
func (c *compiler) ifGreater(s *ast.IfStmt) error {
	const form = "the only if is if v > r { r = v }"
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || s.Init != nil || s.Else != nil || cond.Op != token.GTR || len(s.Body.List) != 1 {
		return c.errf(s.Pos(), form)
	}
	as, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return c.errf(s.Pos(), form)
	}
	v, vok := cond.X.(*ast.Ident)
	r, rok := cond.Y.(*ast.Ident)
	if !vok || !rok || !isName(as.Lhs[0], r.Name) || !isName(as.Rhs[0], v.Name) {
		return c.errf(s.Pos(), form)
	}
	if !c.locals[r.Name] {
		return c.errf(r.Pos(), "%s is not a float64 local", r.Name)
	}
	x, err := c.expr(v)
	if err != nil {
		return err
	}
	c.stmts = append(c.stmts, stmt{dst: local{r.Name}, x: blend{v: x, r: local{r.Name}}, pos: s.Pos()})
	return nil
}

// reserved refuses a name the generated code needs for itself: g, the
// goroutine register in Go assembly, and in a row or chunk kernel the
// locals of its wrapper, into which the body is inlined, and the count
// its assembly loops to.
func (c *compiler) reserved(id *ast.Ident) error {
	if id.Name == "g" {
		return c.errf(id.Pos(), "g names the goroutine register in Go assembly")
	}
	if c.form == rowsForm && (id.Name == "count" || id.Name == "done" || id.Name == "i") {
		return c.errf(id.Pos(), "%s names a local of the row wrapper", id.Name)
	}
	if c.form == rowsForm && id.Name == "groups" {
		return c.errf(id.Pos(), "groups names the group count of the row assembly")
	}
	if c.form == chunkForm && (id.Name == "lens" || id.Name == "width" || id.Name == "q" || id.Name == "k" || strings.HasPrefix(id.Name, "sum_")) {
		return c.errf(id.Pos(), "%s names a local of the chunk wrapper", id.Name)
	}
	return nil
}

// sumLocal names the local that holds a chunk kernel's sum p for one
// lane in its wrapper's scalar loop.
func sumLocal(p *param) string { return "sum_" + p.name }

// inline returns a row or chunk kernel's statements with every array
// element p[...] rewritten by at, to an element of the wrapper's loop
// over the points or slots the assembly does not run; a table's index
// is left as it is, its stream element rewritten. It is the scalar body
// itself, inlined, so it rounds as the body does. The kernel's AST is
// rewritten in place, after its translation.
func (c *compiler) inline(fd *ast.FuncDecl, at func(*param, *ast.IndexExpr)) string {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ix, ok := n.(*ast.IndexExpr); ok {
			if id, ok := ix.X.(*ast.Ident); ok && c.params[id.Name] != nil && c.params[id.Name].array > 0 {
				at(c.params[id.Name], ix)
			}
		}
		return true
	})
	var b bytes.Buffer
	for _, st := range fd.Body.List {
		printer.Fprint(&b, c.fset, st)
		b.WriteString("\n")
	}
	return b.String()
}

func (c *compiler) dest(l ast.Expr, define bool) (interface{}, error) {
	switch l := l.(type) {
	case *ast.Ident:
		if err := c.reserved(l); err != nil {
			return nil, err
		}
		if _, loop := c.loops[l.Name]; loop || c.params[l.Name] != nil {
			return nil, c.errf(l.Pos(), "cannot assign to %s", l.Name)
		}
		if !define && !c.locals[l.Name] {
			return nil, c.errf(l.Pos(), "undefined local %s", l.Name)
		}
		c.locals[l.Name] = true
		return local{l.Name}, nil
	case *ast.IndexExpr:
		x, err := c.expr(l)
		if err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, c.errf(l.Pos(), "unsupported assignment target")
}

// loop unrolls for v := lo; v < hi; v++ { ... }.
func (c *compiler) loop(s *ast.ForStmt) error {
	init, ok := s.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return c.errf(s.Pos(), "loop must start v := lo")
	}
	v, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return c.errf(s.Pos(), "loop variable must be a name")
	}
	lo, err := c.intExpr(init.Rhs[0])
	if err != nil {
		return err
	}
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS {
		return c.errf(s.Pos(), "loop condition must be v < hi")
	}
	if !isName(cond.X, v.Name) {
		return c.errf(s.Pos(), "loop condition must test %s", v.Name)
	}
	hi, err := c.intExpr(cond.Y)
	if err != nil {
		return err
	}
	if inc, ok := s.Post.(*ast.IncDecStmt); !ok || inc.Tok != token.INC || !isName(inc.X, v.Name) {
		return c.errf(s.Pos(), "loop must step %s++", v.Name)
	}
	if err := c.reserved(v); err != nil {
		return err
	}
	if _, nested := c.loops[v.Name]; nested || c.params[v.Name] != nil || c.locals[v.Name] {
		return c.errf(v.Pos(), "loop variable %s shadows a float64", v.Name)
	}
	for i := lo; i < hi; i++ {
		c.loops[v.Name] = i
		if err := c.block(s.Body.List); err != nil {
			return err
		}
	}
	delete(c.loops, v.Name)
	return nil
}

func isName(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// intExpr reads an index or loop bound: an int literal or a loop
// variable.
func (c *compiler) intExpr(e ast.Expr) (int, error) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind == token.INT {
			return strconv.Atoi(e.Value)
		}
	case *ast.Ident:
		if v, ok := c.loops[e.Name]; ok {
			return v, nil
		}
	}
	return 0, c.errf(e.Pos(), "index must be an int literal or a loop variable")
}

// expr translates a float64 expression.
func (c *compiler) expr(e ast.Expr) (expr, error) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.FLOAT && e.Kind != token.INT {
			return nil, c.errf(e.Pos(), "unsupported literal")
		}
		v, err := strconv.ParseFloat(e.Value, 64)
		if err != nil {
			return nil, c.errf(e.Pos(), "literal %s: %v", e.Value, err)
		}
		return lit{v}, nil
	case *ast.Ident:
		if p := c.params[e.Name]; p != nil && p.array == 0 && !p.table {
			return scal{p}, nil
		}
		if c.locals[e.Name] {
			return local{e.Name}, nil
		}
		return nil, c.errf(e.Pos(), "%s is not a float64 local or parameter", e.Name)
	case *ast.IndexExpr:
		var p *param
		if id, ok := e.X.(*ast.Ident); ok {
			p = c.params[id.Name]
		}
		if p != nil && p.table {
			return c.indexed(p, e.Index)
		}
		if p != nil && p.int32 {
			return nil, c.errf(e.Pos(), "an int32 stream is read only as a table's index")
		}
		if p == nil || p.array == 0 {
			return nil, c.errf(e.Pos(), "only array parameters can be indexed")
		}
		i, err := c.intExpr(e.Index)
		if err != nil {
			return nil, err
		}
		if i < 0 || i >= p.array {
			return nil, c.errf(e.Pos(), "index %d out of range [0,%d)", i, p.array)
		}
		return elem{p, i}, nil
	case *ast.ParenExpr:
		return c.expr(e.X)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); !ok || !isName(sel.X, "math") || sel.Sel.Name != "Sqrt" || len(e.Args) != 1 {
			return nil, c.errf(e.Pos(), "the only call is math.Sqrt(x)")
		}
		x, err := c.expr(e.Args[0])
		if err != nil {
			return nil, err
		}
		if _, ok := x.(lit); ok {
			return nil, c.errf(e.Pos(), "constant expression; write its value")
		}
		return sqrt{x}, nil
	case *ast.UnaryExpr:
		if e.Op != token.SUB {
			return nil, c.errf(e.Pos(), "unsupported unary %s", e.Op)
		}
		x, err := c.expr(e.X)
		if err != nil {
			return nil, err
		}
		if l, ok := x.(lit); ok {
			return lit{-l.v}, nil
		}
		return neg{x}, nil
	case *ast.BinaryExpr:
		ops := map[token.Token]byte{token.ADD: '+', token.SUB: '-', token.MUL: '*', token.QUO: '/'}
		op, ok := ops[e.Op]
		if !ok {
			return nil, c.errf(e.Pos(), "unsupported operator %s", e.Op)
		}
		x, err := c.expr(e.X)
		if err != nil {
			return nil, err
		}
		y, err := c.expr(e.Y)
		if err != nil {
			return nil, err
		}
		_, xl := x.(lit)
		_, yl := y.(lit)
		if xl && yl {
			// Go folds constant expressions exactly before rounding;
			// the kernels need none, so refuse rather than mimic.
			return nil, c.errf(e.Pos(), "constant expression; write its value")
		}
		return binop{op, x, y}, nil
	}
	return nil, c.errf(e.Pos(), "unsupported expression")
}

// indexed translates the index of table t, which must be ix[0] with ix
// an int32 stream: the indexed load t[ix[0]].
func (c *compiler) indexed(t *param, e ast.Expr) (expr, error) {
	if ie, ok := e.(*ast.IndexExpr); ok {
		if id, ok := ie.X.(*ast.Ident); ok && c.params[id.Name] != nil && c.params[id.Name].int32 {
			if i, err := c.intExpr(ie.Index); err == nil && i == 0 {
				return index{t, c.params[id.Name]}, nil
			}
		}
	}
	return nil, c.errf(e.Pos(), "a table is read only at an int32 stream's element, %s[ix[0]]", t.name)
}

// leaves calls f on each leaf of x: literals, locals, parameters, array
// elements and indexed loads, once per occurrence.
func leaves(x expr, f func(expr)) {
	switch x := x.(type) {
	case neg:
		leaves(x.x, f)
	case sqrt:
		leaves(x.x, f)
	case blend:
		leaves(x.v, f)
		leaves(x.r, f)
	case binop:
		leaves(x.x, f)
		leaves(x.y, f)
	default:
		f(x)
	}
}

// reads reports whether x reads local name.
func reads(x expr, name string) bool {
	found := false
	leaves(x, func(l expr) {
		if v, ok := l.(local); ok && v.name == name {
			found = true
		}
	})
	return found
}

// clobbers reports whether writing dst can change what x reads: dst is
// a local x reads, or an array element while x reads any element, since
// two array parameters may point at the same array.
func clobbers(dst interface{}, x expr) bool {
	_, dstElem := dst.(elem)
	found := false
	leaves(x, func(l expr) {
		switch l := l.(type) {
		case local:
			found = found || dst == l
		case elem, index:
			found = found || dstElem
		}
	})
	return found
}

// liveness returns, per statement, the locals whose value is read for
// the last time there (or, never read, is written there). A local
// overwritten by a later statement gives up its register at that write
// instead.
func (c *compiler) liveness() [][]string {
	free := make([][]string, len(c.stmts))
	type def struct {
		name     string
		at, last int
	}
	cur := map[string]*def{}
	for i, s := range c.stmts {
		for name, d := range cur {
			if reads(s.x, name) {
				d.last = i
			}
		}
		if l, ok := s.dst.(local); ok {
			if old := cur[l.name]; old != nil && old.last != i {
				free[max(old.at, old.last)] = append(free[max(old.at, old.last)], l.name)
			}
			cur[l.name] = &def{name: l.name, at: i, last: -1}
		}
	}
	for _, d := range cur {
		i := max(d.at, d.last)
		free[i] = append(free[i], d.name)
	}
	for _, f := range free {
		sort.Strings(f)
	}
	return free
}

// gen emits one kernel's instructions at one width with an allocator of
// sixteen vector registers, Y0-Y15 or Z0-Z15: the closing VZEROUPPER
// clears the upper state of exactly those, so a kernel leaves none
// behind for the SSE code the Go compiler writes.
// A float64 parameter read more than once stays broadcast in a register
// from its first read to its last, as long as that leaves reserve
// registers for temporaries; otherwise each read broadcasts it again.
type gen struct {
	w      width
	b      bytes.Buffer
	pool   *pool
	free   [16]bool
	locals map[string]int
	cached map[*param]int // broadcast parameters held in a register
	uses   map[*param]int // reads of each parameter in the kernel

	// A chunk kernel's registers, held from its start to its end: each
	// lane's sums, the lane lengths, and at the AVX level the column
	// and the mask as doubles.
	chunk           bool
	sums            map[*param]int
	lens, col, mask int
}

// errNoRegisters is the allocator's error when a body needs more than
// the sixteen vector registers.
const errNoRegisters = "out of vector registers"

// reserve is the number of registers a cached parameter leaves free.
const reserve = 4

func (g *gen) emit(format string, args ...interface{}) {
	g.b.WriteString("\t")
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteString("\n")
}

func (g *gen) alloc() (int, error) {
	for r, ok := range g.free {
		if ok {
			g.free[r] = false
			return r, nil
		}
	}
	return 0, fmt.Errorf(errNoRegisters)
}

func (g *gen) release(r int) { g.free[r] = true }

func (g *gen) nfree() int {
	n := 0
	for _, ok := range g.free {
		if ok {
			n++
		}
	}
	return n
}

// operand is an evaluated expression: a register (owned when it is a
// temporary this expression may overwrite) or a memory reference.
type operand struct {
	reg   int
	mem   string
	owned bool
}

// reg names vector register r at g's width.
func (g *gen) reg(r int) string { return g.w.reg + strconv.Itoa(r) }

// op names an operand: its memory reference or its register.
func (g *gen) op(o operand) string {
	if o.mem != "" {
		return o.mem
	}
	return g.reg(o.reg)
}

// memLeaf reports whether x evaluates to a memory operand.
func memLeaf(x expr) bool {
	switch x.(type) {
	case lit, elem:
		return true
	}
	return false
}

func (g *gen) eval(x expr) (operand, error) {
	switch x := x.(type) {
	case lit:
		return operand{mem: g.pool.ref(math.Float64bits(x.v))}, nil
	case elem:
		if r, ok := g.sums[x.p]; ok {
			return operand{reg: r}, nil
		}
		return operand{mem: fmt.Sprintf("%d(%s)", stride*x.i, x.p.gp)}, nil
	case index:
		return g.gather(x)
	case local:
		r, ok := g.locals[x.name]
		if !ok {
			return operand{}, fmt.Errorf("local %s read before it is set", x.name)
		}
		return operand{reg: r}, nil
	case scal:
		if r, ok := g.cached[x.p]; ok {
			return operand{reg: r}, nil
		}
		r, err := g.alloc()
		if err != nil {
			return operand{}, err
		}
		g.emit("VBROADCASTSD %s+%d(FP), %s", x.p.name, x.p.off, g.reg(r))
		if g.uses[x.p] > 1 && g.nfree() >= reserve {
			g.cached[x.p] = r
			return operand{reg: r}, nil
		}
		return operand{reg: r, owned: true}, nil
	case sqrt:
		v, err := g.eval(x.x)
		if err != nil {
			return operand{}, err
		}
		dst, err := g.target(v, operand{})
		if err != nil {
			return operand{}, err
		}
		g.emit("VSQRTPD %s, %s", g.op(v), g.reg(dst))
		return operand{reg: dst, owned: true}, nil
	case blend:
		v, err := g.evalReg(x.v)
		if err != nil {
			return operand{}, err
		}
		r, err := g.evalReg(x.r)
		if err != nil {
			return operand{}, err
		}
		dst, err := g.blend(v, r)
		if err != nil {
			return operand{}, err
		}
		if r.owned && r.reg != dst {
			g.release(r.reg)
		}
		if v.owned && v.reg != dst {
			g.release(v.reg)
		}
		return operand{reg: dst, owned: true}, nil
	case neg:
		v, err := g.evalReg(x.x)
		if err != nil {
			return operand{}, err
		}
		dst, err := g.target(v, operand{})
		if err != nil {
			return operand{}, err
		}
		g.emit("VXORPD %s, %s, %s", g.pool.ref(1<<63), g.op(v), g.reg(dst))
		return operand{reg: dst, owned: true}, nil
	case binop:
		a, b := x.x, x.y
		if (x.op == '+' || x.op == '*') && memLeaf(a) && !memLeaf(b) {
			a, b = b, a
		}
		va, err := g.evalReg(a)
		if err != nil {
			return operand{}, err
		}
		vb, err := g.eval(b)
		if err != nil {
			return operand{}, err
		}
		dst, err := g.target(va, vb)
		if err != nil {
			return operand{}, err
		}
		names := map[byte]string{'+': "VADDPD", '-': "VSUBPD", '*': "VMULPD", '/': "VDIVPD"}
		g.emit("%s %s, %s, %s", names[x.op], g.op(vb), g.op(va), g.reg(dst))
		if vb.owned && vb.reg != dst {
			g.release(vb.reg)
		}
		if va.owned && va.reg != dst {
			g.release(va.reg)
		}
		return operand{reg: dst, owned: true}, nil
	}
	return operand{}, fmt.Errorf("unknown expression %T", x)
}

// blend returns a register holding v where v > r and r elsewhere. $0x1e
// is GT_OQ: false when either operand is NaN. The mask is a YMM register
// at the AVX level and opmask K1 at the AVX-512 one, which blends with
// VBLENDMPD, whose lanes with the mask set take its first operand.
func (g *gen) blend(v, r operand) (int, error) {
	if g.w.reg == "Z" {
		g.emit("VCMPPD $0x1e, %s, %s, K1", g.op(r), g.op(v))
		dst, err := g.target(v, r)
		if err != nil {
			return 0, err
		}
		g.emit("VBLENDMPD %s, %s, K1, %s", g.op(v), g.op(r), g.reg(dst))
		return dst, nil
	}
	mask, err := g.alloc()
	if err != nil {
		return 0, err
	}
	g.emit("VCMPPD $0x1e, %s, %s, %s", g.op(r), g.op(v), g.reg(mask))
	dst, err := g.target(v, r)
	if err != nil {
		return 0, err
	}
	g.emit("VBLENDVPD %s, %s, %s, %s", g.reg(mask), g.op(v), g.op(r), g.reg(dst))
	g.release(mask)
	return dst, nil
}

// chunkStart loads a chunk kernel's sums and lane lengths, the lengths
// as int32 at the AVX-512 level, for VPCMPGTD, and as doubles at the AVX
// one, for VCMPPD, whose column starts at 0.
func (g *gen) chunkStart(k *kernel) error {
	var err error
	for _, p := range k.params {
		if p.written {
			if g.sums[p], err = g.alloc(); err != nil {
				return err
			}
			g.emit("VMOVUPD (%s), %s", p.gp, g.reg(g.sums[p]))
		}
	}
	if g.lens, err = g.alloc(); err != nil {
		return err
	}
	g.emit("MOVQ lens+0(FP), %s", chunkScratch)
	if g.w.reg == "Z" {
		g.emit("VMOVDQU (%s), Y%d", chunkScratch, g.lens)
	} else {
		g.emit("VCVTDQ2PD (%s), %s", chunkScratch, g.reg(g.lens))
		if g.col, err = g.alloc(); err != nil {
			return err
		}
		if g.mask, err = g.alloc(); err != nil {
			return err
		}
		g.emit("VXORPD %s, %s, %s", g.reg(g.col), g.reg(g.col), g.reg(g.col))
	}
	g.emit("XORQ %s, %s", chunkCol, chunkCol)
	return nil
}

// chunkMask sets the mask of the lanes whose length exceeds the column:
// K2 at the AVX-512 level, g.mask at the AVX one.
func (g *gen) chunkMask() error {
	if g.w.reg == "Y" {
		g.emit("VCMPPD $0x1e, %s, %s, %s", g.reg(g.col), g.reg(g.lens), g.reg(g.mask))
		return nil
	}
	c, err := g.alloc()
	if err != nil {
		return err
	}
	g.emit("VPBROADCASTD %s, %s", chunkCol, g.reg(c))
	g.emit("VPCMPGTD %s, %s, K2", g.reg(c), g.reg(g.lens))
	g.release(c)
	return nil
}

// chunkEnd advances a chunk kernel's streams and column, closes its
// loop and stores its sums. A stream steps over the eight lanes of a
// column at both levels.
func (g *gen) chunkEnd(k *kernel, off int) {
	for _, p := range k.params {
		if p.array > 0 && !p.written {
			size := 8
			if p.int32 {
				size = 4
			}
			g.emit("ADDQ $%d, %s", size*lanes, p.gp)
		}
	}
	if g.w.reg == "Y" {
		g.emit("VADDPD %s, %s, %s", g.pool.ref(math.Float64bits(1)), g.reg(g.col), g.reg(g.col))
	}
	g.emit("INCQ %s", chunkCol)
	g.emit("CMPQ %s, width+%d(FP)", chunkCol, off)
	g.emit("JLT loop")
	g.b.WriteString("done:\n")
	for _, p := range k.params {
		if p.written {
			g.emit("VMOVUPD %s, (%s)", g.reg(g.sums[p]), p.gp)
		}
	}
}

// gather loads t[ix[0]] for the lanes of a column: a VGATHERDPD of the
// mask's lanes at the AVX-512 level, into a register zeroed first so
// that it waits on nothing, and at the AVX one four loads through the
// scratch register, every lane's.
func (g *gen) gather(x index) (operand, error) {
	dst, err := g.alloc()
	if err != nil {
		return operand{}, err
	}
	tmp, err := g.alloc()
	if err != nil {
		return operand{}, err
	}
	if g.w.reg == "Z" {
		g.emit("VMOVDQU (%s), Y%d", x.ix.gp, tmp)
		g.emit("KMOVW K2, K3")
		g.emit("VXORPD %s, %s, %s", g.reg(dst), g.reg(dst), g.reg(dst))
		g.emit("VGATHERDPD (%s)(Y%d*8), K3, %s", x.t.gp, tmp, g.reg(dst))
	} else {
		for half, r := range []int{dst, tmp} {
			g.emit("MOVLQSX %d(%s), %s", 8*half, x.ix.gp, chunkScratch)
			g.emit("VMOVSD (%s)(%s*8), X%d", x.t.gp, chunkScratch, r)
			g.emit("MOVLQSX %d(%s), %s", 8*half+4, x.ix.gp, chunkScratch)
			g.emit("VMOVHPD (%s)(%s*8), X%d, X%d", x.t.gp, chunkScratch, r, r)
		}
		g.emit("VINSERTF128 $1, X%d, Y%d, Y%d", tmp, dst, dst)
	}
	g.release(tmp)
	return operand{reg: dst, owned: true}, nil
}

// evalReg evaluates x into a register, loading a memory operand.
func (g *gen) evalReg(x expr) (operand, error) {
	v, err := g.eval(x)
	if err != nil || v.mem == "" {
		return v, err
	}
	r, err := g.alloc()
	if err != nil {
		return operand{}, err
	}
	g.emit("VMOVUPD %s, %s", v.mem, g.reg(r))
	return operand{reg: r, owned: true}, nil
}

// target picks the result register of an operation on a and b: a
// temporary operand's register if there is one, else a fresh one.
func (g *gen) target(a, b operand) (int, error) {
	if a.owned {
		return a.reg, nil
	}
	if b.owned && b.mem == "" {
		return b.reg, nil
	}
	return g.alloc()
}

func (g *gen) stmt(s stmt) error {
	switch d := s.dst.(type) {
	case elem:
		if g.chunk {
			return g.merge(d, s.x)
		}
		v, err := g.evalReg(s.x)
		if err != nil {
			return err
		}
		g.emit("VMOVUPD %s, %d(%s)", g.reg(v.reg), stride*d.i, d.p.gp)
		if v.owned {
			g.release(v.reg)
		}
	case local:
		v, err := g.evalReg(s.x)
		if err != nil {
			return err
		}
		if !v.owned {
			r, err := g.alloc()
			if err != nil {
				return err
			}
			g.emit("VMOVUPD %s, %s", g.reg(v.reg), g.reg(r))
			v.reg = r
		}
		if old, ok := g.locals[d.name]; ok {
			g.release(old)
		}
		g.locals[d.name] = v.reg
	}
	return nil
}

// merge assigns x to a chunk kernel's sum d in the lanes of the mask
// only: s[0] op= y is one merge-masked instruction at the AVX-512 level,
// anything else is computed in every lane and blended in.
func (g *gen) merge(d elem, x expr) error {
	sum := g.sums[d.p]
	if b, ok := x.(binop); ok && b.x == expr(d) && g.w.reg == "Z" {
		v, err := g.eval(b.y)
		if err != nil {
			return err
		}
		names := map[byte]string{'+': "VADDPD", '-': "VSUBPD", '*': "VMULPD", '/': "VDIVPD"}
		g.emit("%s %s, %s, K2, %s", names[b.op], g.op(v), g.reg(sum), g.reg(sum))
		if v.owned {
			g.release(v.reg)
		}
		return nil
	}
	v, err := g.evalReg(x)
	if err != nil {
		return err
	}
	if g.w.reg == "Z" {
		g.emit("VBLENDMPD %s, %s, K2, %s", g.reg(v.reg), g.reg(sum), g.reg(sum))
	} else {
		g.emit("VBLENDVPD %s, %s, %s, %s", g.reg(g.mask), g.reg(v.reg), g.reg(sum), g.reg(sum))
	}
	if v.owned {
		g.release(v.reg)
	}
	return nil
}
