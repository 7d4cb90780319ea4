// Package errsentinel forbids matching errors by their rendered text
// in non-test code. String matching silently breaks when a message is
// reworded (PR 4's failover bug was exactly that) and cannot survive
// wrapping; the replication stack exports typed sentinels
// (kv.ErrDiverged, kv.ErrWrongEpoch, kv.ErrUncertain, kv.ErrConflict,
// kv.ErrSnapSessionExpired, ...), and an error reply carries a typed
// code and detail (rpc.AppError) that kv.DecodeError turns back into
// them, so every cross-process error can be classified with
// errors.Is/errors.As — never the text.
//
// Flagged shapes:
//
//	strings.Contains(x, err.Error())   // and Index/HasPrefix/...
//	strings.Contains(app.Msg, ...)     // AppError's laundered text
//	err.Error() == "..."               // equality on rendered text
//
// Nothing in the repository is exempt; a site that ever does need an
// exemption carries //yesqlint:allow errsentinel with its justification.
package errsentinel

import (
	"go/ast"
	"go/token"
	"go/types"

	"yesquel/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "errsentinel",
	Doc:  "forbid error classification via err.Error() string matching; require errors.Is/errors.As with exported sentinels",
	Run:  run,
}

var stringMatchFuncs = map[string]bool{
	"Contains":  true,
	"HasPrefix": true,
	"HasSuffix": true,
	"Index":     true,
	"LastIndex": true,
	"EqualFold": true,
	"Count":     true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if len(name) >= 8 && name[len(name)-8:] == "_test.go" {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkStringsCall(pass, n)
			case *ast.BinaryExpr:
				checkComparison(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkStringsCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !stringMatchFuncs[sel.Sel.Name] {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "strings" {
		return
	}
	for _, arg := range call.Args {
		if why := errText(pass, arg); why != "" {
			pass.Reportf(call.Pos(),
				"error classified by strings.%s on %s: match the typed error instead (errors.Is/errors.As with an exported sentinel, or the rpc.AppError code)",
				sel.Sel.Name, why)
			return
		}
	}
}

func checkComparison(pass *analysis.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		if why := errText(pass, side); why != "" {
			// app.Msg == "" is a presence check, not classification.
			if other := otherSide(be, side); isEmptyString(other) {
				return
			}
			pass.Reportf(be.Pos(),
				"error compared by %s: match the typed error instead (errors.Is/errors.As with an exported sentinel, or the rpc.AppError code)", why)
			return
		}
	}
}

func otherSide(be *ast.BinaryExpr, side ast.Expr) ast.Expr {
	if be.X == side {
		return be.Y
	}
	return be.X
}

func isEmptyString(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.STRING && (lit.Value == `""` || lit.Value == "``")
}

// errText reports whether e is rendered error text — err.Error() on
// an error value, or the Msg field of an AppError — and returns a
// description for the diagnostic ("" if it is neither).
func errText(pass *analysis.Pass, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Error" || len(e.Args) != 0 {
			return ""
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok {
			return ""
		}
		if implementsError(tv.Type) {
			return "err.Error() text"
		}
	case *ast.SelectorExpr:
		if e.Sel.Name != "Msg" {
			return ""
		}
		tv, ok := pass.TypesInfo.Types[e.X]
		if !ok {
			return ""
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Name() == "AppError" {
			return "AppError.Msg text"
		}
	}
	return ""
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func implementsError(t types.Type) bool {
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}
