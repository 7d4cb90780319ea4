// Package lint is the yesqlint driver: it loads packages, runs the
// analyzer suite over them, and applies the //yesqlint:allow
// suppression discipline. The analyzers themselves live in
// subpackages (repmublock, lockorder, errsentinel, timerloop);
// cmd/yesqlint and the analyzer tests both run them through Run.
//
// Suppressions are deliberate, documented exceptions to an invariant:
// a //yesqlint:allow <analyzer> [-- reason] line either in a
// function's doc comment (suppressing the whole function) or on — or
// immediately above — the offending line. Every allow in this
// repository must say why in its reason clause; the linter does not
// enforce that, review does.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"yesquel/internal/lint/analysis"
	"yesquel/internal/lint/loader"
)

// Finding is one unsuppressed diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run loads the packages matching patterns (rooted at dir) and applies
// every analyzer, returning the surviving findings sorted by position.
func Run(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]Finding, error) {
	pkgs, facts, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		sup := newSuppressions(pkg)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Facts:     facts,
			}
			pass.Report = func(d analysis.Diagnostic) {
				if sup.suppressed(a.Name, d.Pos, facts, pkg.ImportPath) {
					return
				}
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
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

// suppressions indexes a package's //yesqlint:allow comments: by line
// (same-line or line-above suppressions) and by enclosing function
// (doc-comment suppressions resolved through the facts table).
type suppressions struct {
	pkg *loader.Package
	// lineAllows maps file name -> line -> analyzer names allowed at
	// that line and the one below it.
	lineAllows map[string]map[int]map[string]bool
	funcs      []funcRange
}

type funcRange struct {
	start, end token.Pos
	key        string
}

func newSuppressions(pkg *loader.Package) *suppressions {
	s := &suppressions{pkg: pkg, lineAllows: make(map[string]map[int]map[string]bool)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//yesqlint:allow ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := s.lineAllows[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					s.lineAllows[pos.Filename] = byLine
				}
				if byLine[pos.Line] == nil {
					byLine[pos.Line] = make(map[string]bool)
				}
				for _, name := range loader.AllowedNames(c.Text) {
					byLine[pos.Line][name] = true
				}
			}
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				s.funcs = append(s.funcs, funcRange{
					start: fd.Pos(),
					end:   fd.End(),
					key:   analysis.SyntacticFuncKey(pkg.ImportPath, fd),
				})
			}
		}
	}
	return s
}

func (s *suppressions) suppressed(analyzer string, pos token.Pos, facts *analysis.Facts, pkgPath string) bool {
	p := s.pkg.Fset.Position(pos)
	if byLine := s.lineAllows[p.Filename]; byLine != nil {
		// An allow comment covers its own line (trailing comment) and
		// the line immediately after it (comment-above form).
		if byLine[p.Line][analyzer] || byLine[p.Line-1][analyzer] {
			return true
		}
	}
	for _, fr := range s.funcs {
		if pos >= fr.start && pos < fr.end {
			if facts.Allowed[fr.key][analyzer] {
				return true
			}
		}
	}
	return false
}
