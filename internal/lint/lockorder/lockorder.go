// Package lockorder enforces the kvserver Store mutex acquisition
// order so a new code path cannot invert it into a deadlock. The
// order, as documented on the Store struct and verified across the
// replication stack, is:
//
//	repMu → txMu → epochMu → snapMu
//
// (prepare holds txMu while reading the epoch; emitLocked takes
// epochMu under repMu; epochMu and snapMu holders never take another
// store mutex). A function may acquire a mutex only when every mutex
// it already holds ranks strictly earlier; calling a function that
// may (transitively, within the package) acquire an earlier-or-equal
// rank while holding a later one is flagged the same way.
package lockorder

import (
	"go/ast"
	"go/types"

	"yesquel/internal/lint/analysis"
	"yesquel/internal/lint/lockflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "enforce the repMu → txMu → epochMu → snapMu acquisition order",
	Run:  run,
}

// rank maps each tracked mutex field name to its position in the
// sanctioned order. Lower ranks must be acquired first.
var rank = map[string]int{
	"repMu":   0,
	"txMu":    1,
	"epochMu": 2,
	"snapMu":  3,
}

const orderDoc = "repMu → txMu → epochMu → snapMu"

func run(pass *analysis.Pass) error {
	names := make(map[string]bool, len(rank))
	for n := range rank {
		names[n] = true
	}
	isMutex := lockflow.FieldMutex(pass.TypesInfo, names)
	acquires := transitiveAcquires(pass, isMutex)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tr := &lockflow.Tracker{
				IsMutex: isMutex,
				OnLock: func(name string, call *ast.CallExpr, held []string) {
					for _, h := range held {
						if rank[name] <= rank[h] {
							pass.Reportf(call.Pos(),
								"lock order violation: acquiring %s while holding %s (order: %s)",
								name, h, orderDoc)
						}
					}
				},
				OnNode: func(n ast.Node, held []string) {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(held) == 0 {
						return
					}
					callee := lockflow.Callee(pass.TypesInfo, call)
					if callee == nil || callee.Pkg() != pass.Pkg {
						return
					}
					acq, ok := acquires[callee]
					if !ok {
						return
					}
					for name := range acq {
						for _, h := range held {
							if rank[name] <= rank[h] {
								pass.Reportf(call.Pos(),
									"lock order violation: %s may acquire %s, but the caller holds %s (order: %s)",
									callee.Name(), name, h, orderDoc)
								return
							}
						}
					}
				},
			}
			tr.Walk(fd.Body)
		}
	}
	return nil
}

// transitiveAcquires computes, for every function declared in the
// package, the set of tracked mutexes it may acquire directly or via
// same-package calls. FuncLit bodies and go statements are excluded:
// work they do is not on the caller's lock path.
func transitiveAcquires(pass *analysis.Pass, isMutex func(*ast.SelectorExpr) (string, bool)) map[*types.Func]map[string]bool {
	direct := make(map[*types.Func]map[string]bool)
	callees := make(map[*types.Func][]*types.Func)
	var fns []*types.Func

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, obj)
			direct[obj] = make(map[string]bool)
			inspectOnPath(fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
						if inner, ok := sel.X.(*ast.SelectorExpr); ok {
							if name, ok := isMutex(inner); ok {
								direct[obj][name] = true
								return
							}
						}
					}
				}
				if callee := lockflow.Callee(pass.TypesInfo, call); callee != nil && callee.Pkg() == pass.Pkg {
					callees[obj] = append(callees[obj], callee)
				}
			})
		}
	}

	// Fixed point: fold callees' acquire sets into callers until
	// nothing changes.
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			acq := direct[fn]
			for _, c := range callees[fn] {
				for name := range direct[c] {
					if !acq[name] {
						acq[name] = true
						changed = true
					}
				}
			}
		}
	}
	for fn, acq := range direct {
		if len(acq) == 0 {
			delete(direct, fn)
		}
	}
	return direct
}

// inspectOnPath visits nodes on the function's own execution path:
// it descends everywhere except into FuncLit bodies and go
// statements.
func inspectOnPath(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n.(type) {
		case nil:
			return false
		case *ast.FuncLit, *ast.GoStmt:
			return false
		}
		fn(n)
		return true
	})
}
