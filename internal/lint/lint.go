// Package lint is the yesqlint driver: it loads packages and runs the
// analyzer suite over them. The analyzers themselves live in
// subpackages (errsentinel, timerloop); cmd/yesqlint and the
// analyzer tests both run them through Run. There is no suppression
// comment: a finding is fixed, or the analyzer is changed.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"yesquel/internal/lint/analysis"
	"yesquel/internal/lint/loader"
)

// Finding is one diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run loads the packages matching patterns (rooted at dir) and applies
// every analyzer, returning the findings sorted by position.
func Run(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]Finding, error) {
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				TypesInfo: pkg.TypesInfo,
				Report: func(d analysis.Diagnostic) {
					findings = append(findings, Finding{
						Analyzer: a.Name,
						Pos:      pkg.Fset.Position(d.Pos),
						Message:  d.Message,
					})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}
