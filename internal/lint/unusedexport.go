package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// UnusedExport keeps the internal API no larger than the program that
// uses it: it flags every top-level exported func, method, type, var
// and const of an internal/ package that no non-test package of the
// module uses. Test files are not loaded, so an export only a test
// reaches is a finding; a real test seam, or code an open roadmap item
// is about to use, carries //lint:allow unusedexport <reason> instead.
//
// Packages are type-checked one at a time against their dependencies'
// export data, so an object is matched across packages by key (package
// path plus name, FuncKey for methods), not by identity. A use inside
// the object's own declaration (recursion, a type naming itself, a
// method's receiver) does not count. A method is also used when it
// implements, by name and signature, an interface method that module
// code calls, or is String or Error, which fmt finds by type
// assertion.
//
// The verdict needs every user in view: when the load did not cover
// every package of the module (a narrow pattern such as
// ./internal/...), the pass reports nothing.
var UnusedExport = &Analyzer{
	Name:   "unusedexport",
	Doc:    "flag exported declarations of internal/ packages that no non-test code in the module uses",
	Module: true,
	Run:    runUnusedExport,
}

// dynamicMethods are the methods fmt calls through an `any` it
// type-asserts, which no module call site names.
var dynamicMethods = map[string]bool{"String": true, "Error": true}

func runUnusedExport(pass *Pass) error {
	if pass.Ann.partial {
		return nil
	}
	used := make(map[string]bool)
	// The interfaces whose methods module code calls: called method
	// name -> rendered interface type -> the interface's methods.
	called := make(map[string]map[string]methodSet)
	for _, pkg := range pass.Module {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				self := make(map[string]bool)
				for _, id := range declaredNames(decl) {
					if obj := pkg.Info.Defs[id]; obj != nil {
						self[objKey(obj)] = true
					}
				}
				if fd, ok := decl.(*ast.FuncDecl); ok {
					// A method's receiver does not use its type.
					markUses(pkg, fd.Type, self, used, called)
					if fd.Body != nil {
						markUses(pkg, fd.Body, self, used, called)
					}
					continue
				}
				markUses(pkg, decl, self, used, called)
			}
		}
	}

	for _, pkg := range pass.Module {
		if !strings.Contains("/"+pkg.Path+"/", "/internal/") {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				for _, id := range declaredNames(decl) {
					obj := pkg.Info.Defs[id]
					if !id.IsExported() || obj == nil || used[objKey(obj)] {
						continue
					}
					if f, ok := obj.(*types.Func); ok && implementsCalled(f, called) {
						continue
					}
					pass.Reportf(id.Pos(), "%s is exported but no non-test code in the module uses it: delete it, unexport it, or waive a real test seam with //lint:allow unusedexport <reason>", objKey(obj))
				}
			}
		}
	}
	return nil
}

// markUses records every package-level object n refers to, except the
// declaration's own objects (self).
func markUses(pkg *Package, n ast.Node, self map[string]bool, used map[string]bool, called map[string]map[string]methodSet) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if f, ok := obj.(*types.Func); ok && isInterfaceRecv(f) {
			if iface, ok := f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
				if called[f.Name()] == nil {
					called[f.Name()] = make(map[string]methodSet)
				}
				called[f.Name()][types.TypeString(iface, qualifyByPath)] = methodSigs(iface)
			}
			return true
		}
		if key := objKey(obj); key != "" && !self[key] {
			used[key] = true
		}
		return true
	})
}

// objKey is the cross-package key of a package-level object or method
// ("" for anything else: locals, fields, labels).
func objKey(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		return FuncKey(o)
	case *types.Var, *types.Const, *types.TypeName:
		if obj.Parent() == nil || obj.Parent() != obj.Pkg().Scope() {
			return ""
		}
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return ""
}

// declaredNames are the identifiers a top-level declaration declares.
func declaredNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// A methodSet maps method names to their signatures, rendered with
// package-path-qualified types so they compare equal across
// independently type-checked packages.
type methodSet map[string]string

// methodSigs renders an interface's methods.
func methodSigs(iface *types.Interface) methodSet {
	sigs := make(methodSet, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sigs[m.Name()] = sigString(m.Type().(*types.Signature))
	}
	return sigs
}

// sigString renders a signature's parameter and result types, without
// names: implementing a method does not depend on them.
func sigString(sig *types.Signature) string {
	var b strings.Builder
	for _, tuple := range [2]*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qualifyByPath))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

func qualifyByPath(p *types.Package) string { return p.Path() }

// implementsCalled reports whether method f is reached dynamically: it
// is a method fmt type-asserts for, or its receiver type implements a
// called interface method of the same name.
func implementsCalled(f *types.Func, called map[string]map[string]methodSet) bool {
	if !hasRecv(f) {
		return false
	}
	if dynamicMethods[f.Name()] {
		return true
	}
	recv := f.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(recv))
	have := make(methodSet, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		have[m.Name()] = sigString(m.Type().(*types.Signature))
	}
	for _, iface := range called[f.Name()] {
		ok := true
		for name, sig := range iface {
			if have[name] != sig {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
