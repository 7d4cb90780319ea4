// Package loader type-checks Go packages for the yesqlint analyzers
// without golang.org/x/tools. It shells out to `go list -export` to
// make the toolchain compile dependencies into the build cache, then
// parses the target packages' sources and type-checks them against the
// compiler's export data (importer.ForCompiler with a lookup that maps
// import paths to the export files `go list` reported). Everything —
// enumeration, export data, type checking — is the standard toolchain;
// no network, no module downloads.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	TypesInfo  *types.Info
}

// listEntry mirrors the subset of `go list -json` output we consume.
type listEntry struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
}

func goList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(out)
	var entries []listEntry
	for {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				break
			}
			cmd.Wait()
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		entries = append(entries, e)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return entries, nil
}

// Load type-checks the packages matching patterns (standard go
// patterns: import paths, directories, ./...) rooted at dir.
func Load(dir string, patterns ...string) ([]*Package, error) {
	jsonFields := "-json=Dir,ImportPath,Export,GoFiles"
	// The -deps listing compiles every dependency and names its export
	// data for the type checker; the plain listing names the targets,
	// which are type-checked from source.
	deps, err := goList(dir, append([]string{"-export", "-deps", jsonFields}, patterns...)...)
	if err != nil {
		return nil, err
	}
	targets, err := goList(dir, append([]string{jsonFields}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(deps))
	for _, e := range deps {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("loader: no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		p, err := typecheck(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func typecheck(fset *token.FileSet, imp types.Importer, e listEntry) (*Package, error) {
	var files []*ast.File
	for _, name := range e.GoFiles {
		path := filepath.Join(e.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(e.ImportPath, fset, files, info); err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", e.ImportPath, err)
	}
	return &Package{
		ImportPath: e.ImportPath,
		Fset:       fset,
		Files:      files,
		TypesInfo:  info,
	}, nil
}
