package lint

import (
	"go/ast"
	"go/types"
)

// Shared resolution helpers for the analyzers.

// callee resolves the static target of a call expression: a plain
// function, a method on a concrete receiver, or a qualified import
// reference. Calls through function values, interface methods, builtins
// and type conversions resolve to nil.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				// Interface method calls have no static target.
				if sel.Kind() == types.MethodVal && isInterfaceRecv(f) {
					return nil
				}
				return f
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

func isInterfaceRecv(f *types.Func) bool {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

func hasRecv(f *types.Func) bool {
	sig, _ := f.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil
}

// funcDecls yields every top-level function declaration with a body in
// the package, together with its types object and annotation key.
func funcDecls(pkg *Package, fn func(decl *ast.FuncDecl, obj *types.Func, key string)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fn(fd, obj, FuncKey(obj))
		}
	}
}

// enclosingIdent finds the local declaration form of an object: the
// expression a local variable was initialized from, searched within
// body. Returns nil when the variable has no initializer (var x []T)
// or is not declared by an assignment in body.
func declInit(body *ast.BlockStmt, info *types.Info, obj types.Object) (init ast.Expr, found bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || info.Defs[id] != obj {
				continue
			}
			if len(as.Rhs) == len(as.Lhs) {
				init = as.Rhs[i]
			}
			found = true
			return false
		}
		return true
	})
	return init, found
}
