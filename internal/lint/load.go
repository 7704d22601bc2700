package lint

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

// The loader. x/tools drivers use go/packages; this offline build
// shells out to `go list -deps -export -json` instead, which yields the
// same two ingredients: the source files of every package matching the
// patterns, and compiled export data for every dependency (stdlib
// included), so each target package can be parsed and type-checked
// independently with the gc importer instead of topologically from
// source.

// listPkg is the slice of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	Module     *struct{ Path, Dir string }
}

// Load type-checks the packages matching patterns (plus their
// annotation index) for analysis. Only packages of the surrounding
// module are returned; test files are not loaded — contracts bind the
// shipped code, and tests exercise violations on purpose. When the
// patterns reach only some of the module's packages, the index records
// the load as partial.
func Load(dir string, patterns ...string) (*token.FileSet, []*Package, *Index, error) {
	out, err := goList(dir, append([]string{"-deps", "-export", "-json=ImportPath,Dir,Standard,Export,GoFiles,Module"}, patterns...)...)
	if err != nil {
		return nil, nil, nil, err
	}

	exports := make(map[string]string) // import path -> export data file
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if derr := dec.Decode(&p); derr == io.EOF {
			break
		} else if derr != nil {
			return nil, nil, nil, fmt.Errorf("lint: decode go list output: %w", derr)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && p.Module != nil {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})

	var pkgs []*Package
	for _, t := range targets {
		pkg, cerr := checkPackage(fset, imp, t)
		if cerr != nil {
			return nil, nil, nil, cerr
		}
		pkgs = append(pkgs, pkg)
	}
	idx, err := BuildIndex(fset, pkgs)
	if err != nil {
		return nil, nil, nil, err
	}
	if idx.partial, err = partialLoad(targets); err != nil {
		return nil, nil, nil, err
	}
	return fset, pkgs, idx, nil
}

// partialLoad reports whether some package of the loaded module is
// missing from targets.
func partialLoad(targets []listPkg) (bool, error) {
	if len(targets) == 0 {
		return false, nil
	}
	loaded := make(map[string]bool, len(targets))
	for _, t := range targets {
		loaded[t.ImportPath] = true
	}
	out, err := goList(targets[0].Module.Dir, "-f={{.ImportPath}}", "./...")
	if err != nil {
		return false, err
	}
	for _, path := range strings.Fields(string(out)) {
		if !loaded[path] {
			return true, nil
		}
	}
	return false, nil
}

func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.Bytes())
	}
	return out, nil
}

func checkPackage(fset *token.FileSet, imp types.Importer, t listPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", t.ImportPath, err)
	}
	return &Package{Path: t.ImportPath, Files: files, Types: tpkg, Info: info}, nil
}

// NewInfo returns a types.Info with every map the analyzers read.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
}
