// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary, just large enough to
// host the yesqlint analyzers. The build environment this repository
// targets is hermetic — the module has no third-party requirements and
// the toolchain cannot reach a module proxy — so the real x/tools
// framework is unavailable; analyzers written against this package use
// the same shape (Analyzer, Pass, Diagnostic, Reportf) and could be
// ported to the upstream API by changing only import paths.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the check to one package and reports findings via
	// pass.Report / pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the parsed source files of the package under
	// analysis (comments included).
	Files []*ast.File
	// TypesInfo is the type-checked form of Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver, which aggregates
	// them.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
