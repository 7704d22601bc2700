package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Annotation directives. A directive is a machine-readable comment line
// in a function's doc comment (or, for deterministic, a package
// clause's doc comment):
//
//	//angstrom:deterministic
//	//angstrom:hotpath
//	//angstrom:journaled mutator
//	//angstrom:journaled writer
//
// Unknown directives, misspelled arguments, and directives attached to
// anything but a func or package clause are hard errors — a typo must
// break the build, not silently drop a contract.

const (
	directivePrefix = "//angstrom:"
	allowPrefix     = "//lint:allow"
)

// A FuncAnn is the set of contracts declared on one function.
type FuncAnn struct {
	Deterministic bool // body must be bit-reproducible
	Hotpath       bool // body must not allocate
	Mutator       bool // callers must be journaling writers
	Writer        bool // journals ahead of the mutations it applies
}

type rangeAllow struct {
	file       string
	start, end int // line span (inclusive)
	analyzer   string
}

// An Index is the module-wide annotation table: which functions and
// packages carry which contracts, and where findings are suppressed.
type Index struct {
	fns        map[string]FuncAnn // FuncKey -> contracts
	detPkgs    map[string]bool    // package path -> //angstrom:deterministic
	lineAllows map[string]map[int]map[string]bool
	declAllows []rangeAllow
	errs       []Diagnostic
	// partial is set when the load reached only some of the module's
	// packages, so a module pass cannot tell that nothing uses an
	// object (see UnusedExport).
	partial bool
}

// FuncKey is the index key for a function object: "pkg.Name" for
// functions, "pkg.(Type).Name" for methods (pointer receivers
// normalized away, generic instantiations folded to their origin).
func FuncKey(f *types.Func) string {
	f = f.Origin()
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return pkg + "." + f.Name()
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	name := "?"
	switch t := rt.(type) {
	case *types.Named:
		name = t.Obj().Name()
	case *types.Interface:
		// Interface method keys never match an annotation: contracts
		// bind implementations, which static calls resolve to.
		name = "interface"
	}
	return pkg + ".(" + name + ")." + f.Name()
}

// Fn returns the contracts declared on the given function key.
func (idx *Index) Fn(key string) FuncAnn { return idx.fns[key] }

// Deterministic reports whether fn (by key) is in a deterministic
// scope, either directly or through its package's annotation.
func (idx *Index) Deterministic(pkgPath, key string) bool {
	return idx.fns[key].Deterministic || idx.detPkgs[pkgPath]
}

// Errors returns the scanner's own findings (unknown directives,
// malformed allows, misplaced annotations).
func (idx *Index) Errors() []Diagnostic { return append([]Diagnostic(nil), idx.errs...) }

// Allowed reports whether a diagnostic is suppressed by a
// //lint:allow comment on its line, the line above it, or the doc
// comment of the top-level declaration containing it.
func (idx *Index) Allowed(d Diagnostic) bool {
	if lines, ok := idx.lineAllows[d.Pos.Filename]; ok {
		for _, ln := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
			if lines[ln][d.Analyzer] {
				return true
			}
		}
	}
	for _, ra := range idx.declAllows {
		if ra.file == d.Pos.Filename && ra.analyzer == d.Analyzer &&
			d.Pos.Line >= ra.start && d.Pos.Line <= ra.end {
			return true
		}
	}
	return false
}

// BuildIndex scans every package's comments for //angstrom: directives
// and //lint:allow suppressions. Scan errors are collected on the
// index, not returned: the driver reports them alongside analyzer
// findings so one typo does not hide the rest of the run.
func BuildIndex(fset *token.FileSet, pkgs []*Package) (*Index, error) {
	idx := &Index{
		fns:        make(map[string]FuncAnn),
		detPkgs:    make(map[string]bool),
		lineAllows: make(map[string]map[int]map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			idx.scanFile(fset, pkg, file)
		}
	}
	return idx, nil
}

func (idx *Index) scanFile(fset *token.FileSet, pkg *Package, file *ast.File) {
	// Comment groups that legitimately carry directives: the package
	// clause doc and each top-level function's doc. A declaration's doc
	// also scopes an allow to the whole declaration.
	docFor := make(map[*ast.CommentGroup]ast.Node)
	if file.Doc != nil {
		docFor[file.Doc] = file
	}
	for _, decl := range file.Decls {
		var doc *ast.CommentGroup
		switch d := decl.(type) {
		case *ast.FuncDecl:
			doc = d.Doc
		case *ast.GenDecl:
			doc = d.Doc
		}
		if doc != nil {
			docFor[doc] = decl
		}
	}
	for _, cg := range file.Comments {
		owner := docFor[cg]
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			switch {
			case strings.HasPrefix(text, directivePrefix):
				idx.directive(fset, pkg, file, owner, c, strings.TrimPrefix(text, directivePrefix))
			case strings.HasPrefix(text, allowPrefix):
				idx.allow(fset, owner, c, strings.TrimPrefix(text, allowPrefix))
			}
		}
	}
}

func (idx *Index) errorf(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	idx.errs = append(idx.errs, Diagnostic{
		Pos:      fset.Position(pos),
		Analyzer: "annotations",
		Message:  fmt.Sprintf(format, args...),
	})
}

func (idx *Index) directive(fset *token.FileSet, pkg *Package, file *ast.File, owner ast.Node, c *ast.Comment, body string) {
	fields := strings.Fields(body)
	verb := ""
	if len(fields) > 0 {
		verb = fields[0]
	}
	args := fields[1:]

	fd, onFunc := owner.(*ast.FuncDecl)
	_, onPkg := owner.(*ast.File)
	if !onFunc && !onPkg {
		idx.errorf(fset, c.Pos(), "misplaced //angstrom:%s directive: directives attach to a function's doc comment or the package clause", verb)
		return
	}

	var key string
	if onFunc {
		obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			idx.errorf(fset, c.Pos(), "cannot resolve annotated function %s", fd.Name.Name)
			return
		}
		key = FuncKey(obj)
	}

	set := func(f func(*FuncAnn)) {
		ann := idx.fns[key]
		f(&ann)
		idx.fns[key] = ann
	}
	switch verb {
	case "deterministic":
		if len(args) != 0 {
			idx.errorf(fset, c.Pos(), "//angstrom:deterministic takes no arguments (got %q)", strings.Join(args, " "))
			return
		}
		if onPkg {
			idx.detPkgs[pkg.Path] = true
		} else {
			set(func(a *FuncAnn) { a.Deterministic = true })
		}
	case "hotpath":
		if onPkg {
			idx.errorf(fset, c.Pos(), "//angstrom:hotpath applies to functions, not packages")
			return
		}
		if len(args) != 0 {
			idx.errorf(fset, c.Pos(), "//angstrom:hotpath takes no arguments (got %q)", strings.Join(args, " "))
			return
		}
		set(func(a *FuncAnn) { a.Hotpath = true })
	case "journaled":
		if onPkg {
			idx.errorf(fset, c.Pos(), "//angstrom:journaled applies to functions, not packages")
			return
		}
		if len(args) != 1 || (args[0] != "mutator" && args[0] != "writer") {
			idx.errorf(fset, c.Pos(), "//angstrom:journaled requires exactly one of: mutator, writer")
			return
		}
		if args[0] == "mutator" {
			set(func(a *FuncAnn) { a.Mutator = true })
		} else {
			set(func(a *FuncAnn) { a.Writer = true })
		}
	default:
		idx.errorf(fset, c.Pos(), "unknown directive //angstrom:%s (known: deterministic, hotpath, journaled)", verb)
	}
}

func (idx *Index) allow(fset *token.FileSet, owner ast.Node, c *ast.Comment, body string) {
	fields := strings.Fields(body)
	if len(fields) < 2 {
		idx.errorf(fset, c.Pos(), "//lint:allow requires an analyzer name and a reason")
		return
	}
	name := fields[0]
	if ByName(name) == nil && name != "annotations" {
		idx.errorf(fset, c.Pos(), "//lint:allow names unknown analyzer %q", name)
		return
	}
	if decl, ok := owner.(ast.Decl); ok {
		p := fset.Position(decl.Pos())
		idx.declAllows = append(idx.declAllows, rangeAllow{
			file:     p.Filename,
			start:    p.Line,
			end:      fset.Position(decl.End()).Line,
			analyzer: name,
		})
		return
	}
	p := fset.Position(c.Pos())
	lines := idx.lineAllows[p.Filename]
	if lines == nil {
		lines = make(map[int]map[string]bool)
		idx.lineAllows[p.Filename] = lines
	}
	if lines[p.Line] == nil {
		lines[p.Line] = make(map[string]bool)
	}
	lines[p.Line][name] = true
}
