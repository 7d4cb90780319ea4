// Package lockorder enforces the kvserver Store mutex acquisition
// order so a new code path cannot invert it into a deadlock. The
// order, as documented on the Store struct, is:
//
//	repMu → txMu → epochMu
//
// (prepare holds txMu while reading the epoch; emitLocked takes
// epochMu under repMu; epochMu holders never take another store
// mutex). A function may acquire a mutex only when every mutex
// it already holds ranks strictly earlier; calling a function that
// may (transitively, within the package) acquire an earlier-or-equal
// rank while holding a later one is flagged the same way.
//
// The walk follows a function body in source order with enough
// control flow for the store's locking idioms: an Unlock inside an
// early-return branch does not end the critical section on the
// fall-through path, and a deferred Unlock holds to the end of the
// function. Where branches merge, a mutex held on any of them counts
// as held, so branchy code does not hide an inversion. Function
// literals and go statements are not on the path: they run on their
// own schedule.
//
// The tests do not reliably catch an inversion: taking txMu under
// epochMu in installEpochState deadlocks only when an epoch install
// meets a prepare that holds txMu, which
// TestCommitRacingAttachIsCoveredByCapture schedules in some runs and
// not in others.
package lockorder

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"yesquel/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "enforce the repMu → txMu → epochMu acquisition order",
	Run:  run,
}

// order lists the tracked mutex fields; a mutex's rank is its index,
// and lower ranks must be acquired first.
var order = []string{"repMu", "txMu", "epochMu"}

var orderDoc = strings.Join(order, " → ")

func rank(name string) int { return slices.Index(order, name) }

type checker struct {
	pass *analysis.Pass
	// acquires maps each package function to the tracked mutexes it
	// may acquire, directly or through same-package calls.
	acquires map[*types.Func]map[string]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	c.acquires = c.transitiveAcquires()
	for _, fd := range funcDecls(pass) {
		var held []string
		c.stmts(fd.Body.List, &held)
	}
	return nil
}

func funcDecls(pass *analysis.Pass) []*ast.FuncDecl {
	var fds []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fds = append(fds, fd)
			}
		}
	}
	return fds
}

// lockCall classifies e as a Lock/RLock (lock) or Unlock/RUnlock
// (!lock) call on a tracked mutex.
func (c *checker) lockCall(e ast.Expr) (name string, lock, ok bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok || rank(field.Sel.Name) < 0 || !isSyncMutex(c.pass.TypesInfo.Types[field].Type) {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return field.Sel.Name, true, true
	case "Unlock", "RUnlock":
		return field.Sel.Name, false, true
	}
	return "", false, false
}

func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// callee resolves the package function a call invokes, or nil for
// builtins, function values, conversions and other packages' functions.
func (c *checker) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := c.pass.TypesInfo.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() != c.pass.Pkg {
		return nil
	}
	return fn
}

// stmts walks a statement list, updating held; it reports whether the
// list ends its block (return, branch, panic).
func (c *checker) stmts(list []ast.Stmt, held *[]string) bool {
	for _, s := range list {
		if c.stmt(s, held) {
			return true
		}
	}
	return false
}

func (c *checker) stmt(s ast.Stmt, held *[]string) bool {
	switch s := s.(type) {
	case nil, *ast.DeferStmt, *ast.GoStmt:
		// A deferred Unlock keeps the mutex held for the rest of the
		// body; deferred and spawned work is not on this path.
		return false
	case *ast.ExprStmt:
		if name, lock, ok := c.lockCall(s.X); ok {
			if lock {
				for _, h := range *held {
					if rank(name) <= rank(h) {
						c.pass.Reportf(s.X.Pos(),
							"lock order violation: acquiring %s while holding %s (order: %s)", name, h, orderDoc)
					}
				}
				add(held, name)
			} else {
				*held = slices.DeleteFunc(*held, func(h string) bool { return h == name })
			}
			return false
		}
		c.visit(s.X, *held)
		return isPanic(s.X)
	case *ast.BlockStmt:
		return c.stmts(s.List, held)
	case *ast.IfStmt:
		c.stmt(s.Init, held)
		c.visit(s.Cond, *held)
		body, els := slices.Clone(*held), slices.Clone(*held)
		bodyTerm := c.stmts(s.Body.List, &body)
		elseTerm := c.stmt(s.Else, &els)
		switch {
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			*held = els
		case elseTerm:
			*held = body
		default:
			*held = union(body, els)
		}
		return false
	case *ast.ForStmt:
		c.stmt(s.Init, held)
		c.visit(s.Cond, *held)
		body := slices.Clone(*held)
		c.stmts(s.Body.List, &body)
		c.stmt(s.Post, &body)
		*held = union(*held, body)
		return false
	case *ast.RangeStmt:
		c.visit(s.X, *held)
		body := slices.Clone(*held)
		c.stmts(s.Body.List, &body)
		*held = union(*held, body)
		return false
	case *ast.SwitchStmt:
		c.stmt(s.Init, held)
		c.visit(s.Tag, *held)
		c.clauses(s.Body, held)
		return false
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init, held)
		c.stmt(s.Assign, held)
		c.clauses(s.Body, held)
		return false
	case *ast.SelectStmt:
		c.clauses(s.Body, held)
		return false
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.visit(r, *held)
		}
		return true
	case *ast.BranchStmt:
		return true
	default:
		c.visit(s, *held)
		return false
	}
}

// clauses walks the clauses of a switch or select: what is held after
// it is the union of what the clauses that fall out of it hold, and of
// what was held before it (no clause may run).
func (c *checker) clauses(body *ast.BlockStmt, held *[]string) {
	exit := slices.Clone(*held)
	for _, cl := range body.List {
		in := slices.Clone(*held)
		var term bool
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				c.visit(e, in)
			}
			term = c.stmts(cl.Body, &in)
		case *ast.CommClause:
			c.stmt(cl.Comm, &in)
			term = c.stmts(cl.Body, &in)
		}
		if !term {
			exit = union(exit, in)
		}
	}
	*held = exit
}

// visit checks every call in an expression or simple statement made
// while held is held: one whose callee may acquire a mutex that does
// not rank after all of them is an inversion.
func (c *checker) visit(n ast.Node, held []string) {
	if n == nil || len(held) == 0 {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := c.callee(call)
		if fn == nil {
			return true
		}
		for _, name := range order {
			if !c.acquires[fn][name] {
				continue
			}
			for _, h := range held {
				if rank(name) <= rank(h) {
					c.pass.Reportf(call.Pos(),
						"lock order violation: %s may acquire %s, but the caller holds %s (order: %s)",
						fn.Name(), name, h, orderDoc)
					return true
				}
			}
		}
		return true
	})
}

// transitiveAcquires computes, for every function declared in the
// package, the set of tracked mutexes it may acquire directly or via
// same-package calls (function literals and go statements excluded).
func (c *checker) transitiveAcquires() map[*types.Func]map[string]bool {
	acquires := make(map[*types.Func]map[string]bool)
	callees := make(map[*types.Func][]*types.Func)
	for _, fd := range funcDecls(c.pass) {
		fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		acq := make(map[string]bool)
		acquires[fn] = acq
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.CallExpr:
				if name, lock, ok := c.lockCall(n); ok && lock {
					acq[name] = true
				} else if callee := c.callee(n); callee != nil {
					callees[fn] = append(callees[fn], callee)
				}
			}
			return true
		})
	}
	// Fixed point: fold callees' acquire sets into callers until
	// nothing changes.
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			for _, callee := range cs {
				for name := range acquires[callee] {
					if !acquires[fn][name] {
						acquires[fn][name] = true
						changed = true
					}
				}
			}
		}
	}
	return acquires
}

func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func add(held *[]string, name string) {
	if !slices.Contains(*held, name) {
		*held = append(*held, name)
	}
}

// union returns a with b's names that a lacks appended.
func union(a, b []string) []string {
	for _, n := range b {
		add(&a, n)
	}
	return a
}
