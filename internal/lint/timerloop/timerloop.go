// Package timerloop forbids allocating a new timer on every iteration
// of a loop. time.After, time.Tick, and a time.NewTimer/time.NewTicker
// whose result lives only for one iteration each allocate (and, for
// After/Tick, leak until firing) a runtime timer per pass — exactly
// the churn PR 8 removed from Store.Read's bounded-wait loop. The
// sanctioned shape is a single reusable timer declared before the
// loop and Reset per iteration (lazily created on first use is fine:
// the assignment targets a variable that outlives the loop).
//
// Test files are exempt: short-lived timer churn in tests is noise,
// not a hot path. The tests do not catch the fault: a time.After back
// in Store.read's wait loop passes them.
package timerloop

import (
	"go/ast"
	"go/token"
	"go/types"

	"yesquel/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "timerloop",
	Doc:  "forbid per-iteration timer allocation (time.After / time.NewTimer in for loops); reuse one timer as in Store.Read",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				walk(pass, fd.Body, nil)
			}
		}
	}
	return nil
}

func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	name := pass.Fset.Position(f.Pos()).Filename
	return len(name) >= 8 && name[len(name)-8:] == "_test.go"
}

// walk traverses stmts tracking the stack of enclosing for/range
// loops within one function body. FuncLit bodies restart with an
// empty stack: their execution frequency is not the enclosing loop's.
func walk(pass *analysis.Pass, n ast.Node, loops []ast.Node) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		walk(pass, n.Body, nil)
		return
	case *ast.ForStmt:
		walk(pass, n.Init, loops)
		walkExpr(pass, n.Cond, loops)
		walk(pass, n.Post, loops)
		walk(pass, n.Body, append(loops, n))
		return
	case *ast.RangeStmt:
		walkExpr(pass, n.X, loops)
		walk(pass, n.Body, append(loops, n))
		return
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			checkAssigned(pass, n, rhs, loops)
		}
		return
	case *ast.CallExpr:
		walkCall(pass, n, loops)
		return
	}
	// Generic traversal for everything else, stopping at the node
	// kinds handled above.
	children(n, func(c ast.Node) {
		walk(pass, c, loops)
	})
}

// children invokes fn on each direct child node of n.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c == nil {
			return false
		}
		fn(c)
		return false
	})
}

// walkExpr scans an expression subtree (no statement structure).
func walkExpr(pass *analysis.Pass, e ast.Expr, loops []ast.Node) {
	if e == nil {
		return
	}
	walk(pass, e, loops)
}

// checkAssigned handles `x = time.NewTimer(...)` / `x := ...`: the
// allocation is fine when x is declared outside every enclosing loop
// (the reuse/lazy-init pattern); otherwise it is per-iteration.
func checkAssigned(pass *analysis.Pass, as *ast.AssignStmt, rhs ast.Expr, loops []ast.Node) {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(loops) == 0 {
		walkExpr(pass, rhs, loops)
		return
	}
	kind := timeAlloc(pass, call)
	if kind == "" {
		walkExpr(pass, rhs, loops)
		return
	}
	if kind == "NewTimer" || kind == "NewTicker" {
		if as.Tok == token.ASSIGN && len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && obj.Pos() < loops[0].Pos() {
					return // reusable timer declared before the loop
				}
			}
		}
	}
	report(pass, call, kind)
}

func walkCall(pass *analysis.Pass, call *ast.CallExpr, loops []ast.Node) {
	if len(loops) > 0 {
		if kind := timeAlloc(pass, call); kind != "" {
			report(pass, call, kind)
			return
		}
	}
	for _, a := range call.Args {
		walkExpr(pass, a, loops)
	}
	walkExpr(pass, call.Fun, loops)
}

func report(pass *analysis.Pass, call *ast.CallExpr, kind string) {
	hint := "declare one reusable timer before the loop and Reset it per iteration (see Store.Read)"
	if kind == "After" || kind == "Tick" {
		hint = "each call allocates a timer that lives until it fires; " + hint
	}
	pass.Reportf(call.Pos(), "time.%s inside a loop allocates per iteration: %s", kind, hint)
}

// timeAlloc reports which timer-allocating time function call is,
// or "" if it is none of them.
func timeAlloc(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "time" {
		return ""
	}
	switch sel.Sel.Name {
	case "After", "Tick", "NewTimer", "NewTicker":
		return sel.Sel.Name
	}
	return ""
}
