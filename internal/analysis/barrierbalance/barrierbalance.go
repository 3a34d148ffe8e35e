// Package barrierbalance flags team synchronization that only some
// workers of a parallel region can reach.
//
// The team barrier is a counting barrier: every worker of the region
// must arrive the same number of times, exactly like an OpenMP barrier.
// The paper hit this the hard way in LU's pipelined sweep, where a
// mis-scoped wait left part of the team parked forever (§5, the
// pipeline stall the robustness work reproduces with fault injection).
// Three shapes are diagnosed inside Run/RunCtx region bodies, and
// inside hoisted bodies — a func(id int) literal assigned to a variable
// or field and handed to Run later, which is where the kernels'
// one-region-per-phase bodies keep their barriers.
// Barrier stands for Barrier, BarrierID and BarrierUnlessStatic; the
// last is itself conditional, but on the region's schedule, which every
// worker of the region sees alike.
//
//  1. Team.Barrier reached under a conditional (if/switch/select) — a
//     worker that takes the other arm never arrives, and the region
//     deadlocks until the barrier is poisoned.
//  2. Team.Barrier inside a loop whose bounds depend on the worker id —
//     workers arrive different numbers of times, which desynchronizes
//     every later barrier of the region.
//  3. Any region-starting call (Run, RunCtx, Warmup) inside a region
//     body — the runtime rejects nested regions with a panic, so this
//     is always a bug.
package barrierbalance

import (
	"go/ast"
	"go/types"

	"npbgo/internal/analysis"
)

const teamPath = "npbgo/internal/team"

// regionStarters are the Team methods that fork a complete parallel
// region; their final func-literal argument is a region body.
var regionStarters = map[string]bool{"Run": true, "RunCtx": true}

// nestable are Team methods that are also illegal anywhere inside a
// region body, in addition to the region starters.
var nestable = map[string]bool{"Warmup": true}

var Analyzer = &analysis.Analyzer{
	Name: "barrierbalance",
	Doc: "flag Team.Barrier calls not reached uniformly by all workers of a region, " +
		"and parallel regions nested inside region bodies",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if body := regionBody(pass, n); body != nil {
					checkRegion(pass, body)
				}
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					if lit, ok := rhs.(*ast.FuncLit); ok && isHoistedBody(pass, lit) {
						checkRegion(pass, lit)
					}
				}
			}
			return true
		})
	}
	return nil
}

// regionBody returns the func-literal region body if call starts a
// parallel region, else nil.
func regionBody(pass *analysis.Pass, call *ast.CallExpr) *ast.FuncLit {
	recv, method, ok := analysis.Receiver(pass.TypesInfo, call)
	if !ok || !analysis.IsNamed(recv, teamPath, "Team") || !regionStarters[method] {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
	if !ok {
		return nil
	}
	return lit
}

// isHoistedBody reports whether lit has a region body's type, func(int).
func isHoistedBody(pass *analysis.Pass, lit *ast.FuncLit) bool {
	sig, ok := pass.TypesInfo.TypeOf(lit).(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	b, ok := sig.Params().At(0).Type().(*types.Basic)
	return ok && b.Kind() == types.Int
}

// checkRegion walks one region body, tracking the conditional and
// id-dependent-loop nesting of every team call inside it.
func checkRegion(pass *analysis.Pass, body *ast.FuncLit) {
	id := workerIDParam(pass, body)
	var walk func(n ast.Node, conditional bool, idLoop bool)
	walk = func(n ast.Node, conditional, idLoop bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			if n != body {
				// A closure defined inside the region runs wherever it
				// is called; calls inside it are analyzed when their
				// own region is matched.
				return
			}
		case *ast.IfStmt:
			walk(n.Init, conditional, idLoop)
			walk(n.Cond, conditional, idLoop)
			walk(n.Body, true, idLoop)
			walk(n.Else, true, idLoop)
			return
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			for _, c := range children(n) {
				walk(c, true, idLoop)
			}
			return
		case *ast.ForStmt:
			dep := idLoop || dependsOn(pass, n.Cond, id) || dependsOn(pass, n.Init, id)
			for _, c := range children(n) {
				walk(c, conditional, dep)
			}
			return
		case *ast.RangeStmt:
			dep := idLoop || dependsOn(pass, n.X, id)
			for _, c := range children(n) {
				walk(c, conditional, dep)
			}
			return
		case *ast.CallExpr:
			checkTeamCall(pass, n, conditional, idLoop)
		}
		for _, c := range children(n) {
			walk(c, conditional, idLoop)
		}
	}
	for _, stmt := range body.Body.List {
		walk(stmt, false, false)
	}
}

// checkTeamCall reports a team synchronization call that is nested or
// non-uniformly reached.
func checkTeamCall(pass *analysis.Pass, call *ast.CallExpr, conditional, idLoop bool) {
	recv, method, ok := analysis.Receiver(pass.TypesInfo, call)
	if !ok || !analysis.IsNamed(recv, teamPath, "Team") {
		return
	}
	switch {
	case regionStarters[method] || nestable[method]:
		pass.Reportf(call.Pos(),
			"Team.%s starts a parallel region inside a region body; the team runtime panics on nested regions", method)
	case method != "Barrier" && method != "BarrierID" && method != "BarrierUnlessStatic":
		return
	case conditional:
		pass.Reportf(call.Pos(),
			"Team.%s is conditionally reached inside a parallel region; workers that skip it leave the team deadlocked (the LU pipeline anomaly)", method)
	case idLoop:
		pass.Reportf(call.Pos(),
			"Team.%s inside a loop whose bounds depend on the worker id; workers arrive unequal numbers of times", method)
	}
}

// workerIDParam returns the object of the region body's worker-id
// parameter (func(id int)), or nil when the body leaves it unnamed.
func workerIDParam(pass *analysis.Pass, body *ast.FuncLit) types.Object {
	params := body.Type.Params.List
	if len(params) != 1 || len(params[0].Names) != 1 {
		return nil
	}
	return pass.TypesInfo.Defs[params[0].Names[0]]
}

// dependsOn reports whether any identifier under n resolves to param.
func dependsOn(pass *analysis.Pass, n ast.Node, param types.Object) bool {
	if n == nil || param == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == param {
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
