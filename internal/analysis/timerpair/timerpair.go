// Package timerpair flags timer.Set.Start calls — direct, or through
// the nil-safe kernel.Env.Start the benchmarks charge their phases
// with — with no matching Stop in the same function.
//
// The per-phase profiles in the paper's tables are sums of Start/Stop
// laps; a Start whose Stop was lost to a refactor does not crash — it
// silently folds the rest of the run into that phase, which corrupts
// every percentage in the profile table. For each function, every
// Start("name") with a literal name must be paired with at least one
// Stop("name") (or defer Stop("name"), which covers all return paths)
// with the same literal in the same function. Starts with non-literal
// names are ignored: helpers that take the phase name as a parameter
// pair dynamically and cannot be checked syntactically.
package timerpair

import (
	"go/ast"

	"npbgo/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "timerpair",
	Doc:  "flag timer.Set Start calls with no matching Stop for the same phase name in the same function",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	type startSite struct {
		pos  ast.Node
		name string
	}
	var starts []startSite
	stopped := make(map[string]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		recv, method, isMeth := analysis.Receiver(pass.TypesInfo, call)
		if !isMeth || !analysis.IsPhaseTimer(recv) || len(call.Args) == 0 {
			return true
		}
		name, isLit := analysis.StringLit(call.Args[0])
		if !isLit {
			return true
		}
		switch method {
		case "Start":
			starts = append(starts, startSite{call, name})
		case "Stop":
			stopped[name] = true
		}
		return true
	})
	for _, s := range starts {
		if !stopped[s.name] {
			pass.Reportf(s.pos.Pos(),
				"timer.Start(%q) has no matching Stop in %s; the phase profile silently absorbs everything after it", s.name, fn.Name.Name)
		}
	}
}
