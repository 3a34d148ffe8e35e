// Package sharedwrite flags writes to captured shared state inside
// parallel region bodies that are not routed through a per-worker slot.
//
// Every worker of a team executes the region body concurrently, so an
// assignment to a variable captured from the enclosing function is a
// data race unless exactly one worker performs it or the destination is
// partitioned by worker. This is the bug class `go test -race` only
// catches when the schedule cooperates: a reduction accumulated into a
// captured scalar, or a write through a constant index, can run clean
// for thousands of iterations. The intended idioms are Team.Partial(id),
// per-worker slots indexed by id, or indices derived from the worker's
// Loop chunk or Block share — all of which this analyzer accepts.
//
// Accepted shapes inside a region body:
//   - writes to variables declared inside the body (worker-local);
//   - indexed writes whose index involves a body-local variable or the
//     worker id (assumed block-derived — static approximation);
//   - writes through pointers returned by calls (e.g. *tm.Partial(id));
//   - any write inside a conditional that tests the worker id (the
//     master-only section idiom between barriers).
//
// Everything else that targets captured state is reported.
package sharedwrite

import (
	"go/ast"
	"go/token"
	"go/types"

	"npbgo/internal/analysis"
)

const teamPath = "npbgo/internal/team"

var regionStarters = map[string]bool{"Run": true, "RunCtx": true}

var Analyzer = &analysis.Analyzer{
	Name: "sharedwrite",
	Doc: "flag writes to captured variables inside parallel regions that bypass " +
		"Partial(id), per-worker slots, and block-derived indices",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, method, isMeth := analysis.Receiver(pass.TypesInfo, call)
			if !isMeth || !analysis.IsNamed(recv, teamPath, "Team") || !regionStarters[method] {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			if body, isLit := call.Args[len(call.Args)-1].(*ast.FuncLit); isLit {
				checkRegion(pass, body)
			}
			return true
		})
	}
	return nil
}

// region carries the scope facts needed to classify a write.
type region struct {
	pass *analysis.Pass
	body *ast.FuncLit
	id   types.Object // worker-id parameter, nil when the body leaves it unnamed
}

func checkRegion(pass *analysis.Pass, body *ast.FuncLit) {
	r := &region{pass: pass, body: body}
	if params := body.Type.Params.List; len(params) == 1 && len(params[0].Names) == 1 {
		r.id = pass.TypesInfo.Defs[params[0].Names[0]]
	}
	var walk func(n ast.Node, idGuarded bool)
	walk = func(n ast.Node, idGuarded bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			if n != body {
				return // nested closures run wherever they are called
			}
		case *ast.IfStmt:
			guarded := idGuarded || r.mentionsID(n.Cond)
			walk(n.Init, idGuarded)
			walk(n.Body, guarded)
			walk(n.Else, guarded)
			return
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE && !idGuarded {
				for _, lhs := range n.Lhs {
					r.checkWrite(lhs)
				}
			}
		case *ast.IncDecStmt:
			if !idGuarded {
				r.checkWrite(n.X)
			}
		}
		for _, c := range children(n) {
			walk(c, idGuarded)
		}
	}
	for _, stmt := range body.Body.List {
		walk(stmt, false)
	}
}

// checkWrite classifies one assignment target and reports it if it is
// captured shared state written without a per-worker route. The target
// is an access path (x, b.f, b.u[off], t.partial[id].v, *p, ...); it is
// accepted if its base is worker-local, or if any index along the path
// involves a body-local value — the static approximation of "routed
// through a per-worker slot or a block-derived index".
func (r *region) checkWrite(lhs ast.Expr) {
	base, indices, ok := accessPath(lhs)
	if !ok {
		return // writes through call results (*tm.Partial(id)) and the like
	}
	if !r.captured(r.pass.TypesInfo.Uses[base]) {
		return
	}
	for _, index := range indices {
		if r.localIndex(index) {
			return
		}
	}
	if len(indices) == 0 {
		r.pass.Reportf(lhs.Pos(),
			"assignment to captured %s inside a parallel region; use Team.Partial(id), a per-worker slot, or a block-derived index", base.Name)
	} else {
		r.pass.Reportf(lhs.Pos(),
			"captured %s is indexed only by captured or constant values inside a parallel region; derive the index from the worker id or its block", base.Name)
	}
}

// accessPath unwraps an assignment target to its base identifier,
// collecting every index expression crossed on the way. ok is false
// when the base is not an identifier (e.g. a call result).
func accessPath(e ast.Expr) (base *ast.Ident, indices []ast.Expr, ok bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, indices, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			indices = append(indices, x.Index)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, nil, false
		}
	}
}

// captured reports whether obj is a variable declared outside the
// region body (including package-level variables).
func (r *region) captured(obj types.Object) bool {
	v, isVar := obj.(*types.Var)
	if !isVar {
		return false
	}
	return !r.inBody(v)
}

// inBody reports whether obj's declaration lies inside the region body
// (parameters included).
func (r *region) inBody(obj types.Object) bool {
	return obj.Pos() >= r.body.Pos() && obj.Pos() <= r.body.End()
}

// localIndex reports whether the index expression involves at least one
// body-local variable or the worker id — the static approximation of
// "derived from the worker's block of the iteration space".
func (r *region) localIndex(index ast.Expr) bool {
	local := false
	ast.Inspect(index, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return true
		}
		if obj, isVar := r.pass.TypesInfo.Uses[id].(*types.Var); isVar && r.inBody(obj) {
			local = true
		}
		return !local
	})
	return local
}

// mentionsID reports whether the worker-id parameter appears under n.
func (r *region) mentionsID(n ast.Node) bool {
	if n == nil || r.id == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && r.pass.TypesInfo.Uses[id] == r.id {
			found = true
		}
		return !found
	})
	return found
}

// children returns the direct child nodes of n.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m != nil {
			out = append(out, m)
		}
		return false
	})
	return out
}
