package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath turns the bench gate's after-the-fact 0-alloc check into a
// compile-time one: functions annotated //angstrom:hotpath (Sense,
// Monitor.emit, journal.AppendFrame, the directory's beat reads) are
// the paths the Test*Alloc* contracts pin at 0 allocations,
// and this analyzer rejects the constructs that silently reintroduce
// an allocation:
//
//   - fmt.Sprintf / fmt.Errorf / errors.New and friends: formatting
//     boxes every argument and builds a string per call;
//   - implicit conversion of a concrete value to an interface
//     parameter or result (boxing) and explicit interface conversions;
//   - closures capturing locals: the captured variables move to the
//     heap (the AppendFrame header-escape bug class);
//   - append to a slice born in this function: growth allocates every
//     call — append into a reused caller- or field-owned buffer;
//   - string concatenation and string<->[]byte conversions;
//   - make / new / pointer-to-composite / map and slice literals.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "flag allocation-forcing constructs in //angstrom:hotpath functions",
	Run:  runHotpath,
}

// alwaysAllocates lists pkg.Func calls that allocate by construction.
var alwaysAllocates = map[string]map[string]bool{
	"fmt":     {"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true, "Appendf": true, "Append": true, "Appendln": true},
	"errors":  {"New": true, "Join": true},
	"strings": {"Join": true, "Repeat": true},
}

func runHotpath(pass *Pass) error {
	info := pass.Pkg.Info
	funcDecls(pass.Pkg, func(decl *ast.FuncDecl, obj *types.Func, key string) {
		if !pass.Ann.Fn(key).Hotpath {
			return
		}
		h := &hotpathCheck{pass: pass, info: info, decl: decl}
		ast.Inspect(decl.Body, h.visit)
	})
	return nil
}

type hotpathCheck struct {
	pass *Pass
	info *types.Info
	decl *ast.FuncDecl
}

func (h *hotpathCheck) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		h.call(n)
	case *ast.FuncLit:
		h.funcLit(n)
		return false // the closure's own body is the closure's problem
	case *ast.BinaryExpr:
		h.binary(n)
	case *ast.CompositeLit:
		h.composite(n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				h.pass.Reportf(n.Pos(), "&composite literal allocates on the hot path")
			}
		}
	case *ast.ReturnStmt:
		h.returns(n)
	}
	return true
}

func (h *hotpathCheck) call(call *ast.CallExpr) {
	// Builtins: make and new allocate; append is checked against the
	// reused-buffer rule.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := h.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				h.pass.Reportf(call.Pos(), "%s allocates on the hot path: hoist the buffer to the caller or a reused field", b.Name())
			case "append":
				h.append(call)
			}
			return
		}
	}
	// Conversions: string <-> []byte/[]rune copy; conversion to an
	// interface type boxes.
	if tv, ok := h.info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		h.conversion(call, tv.Type)
		return
	}
	f := callee(h.info, call)
	if f != nil && f.Pkg() != nil && !hasRecv(f) && alwaysAllocates[f.Pkg().Path()][f.Name()] {
		h.pass.Reportf(call.Pos(), "%s.%s allocates per call: precompute the message or return a sentinel", f.Pkg().Name(), f.Name())
		return
	}
	h.boxedArgs(call)
}

// append flags growth of a slice that was born inside the annotated
// function: every call allocates. Appending to parameters, fields, and
// reslices of caller-owned memory is the reuse idiom and passes.
func (h *hotpathCheck) append(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return // selector (field buffer) or more complex base: reused
	}
	obj := h.info.Uses[id]
	if obj == nil {
		return
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return
	}
	// Only locals declared within this function body are "born here".
	if v.Pos() < h.decl.Body.Pos() || v.Pos() > h.decl.Body.End() {
		return
	}
	init, found := declInit(h.decl.Body, h.info, obj)
	if found && init != nil {
		switch e := ast.Unparen(init).(type) {
		case *ast.SliceExpr:
			return // x := buf[:0] — reuse of caller-owned memory
		case *ast.CallExpr:
			// Initialized from a call: assume the callee handed over a
			// reusable buffer (e.g. a pool get); make() is already
			// flagged at its own call site.
			_ = e
			return
		}
	}
	h.pass.Reportf(call.Pos(), "append to %s, a slice born in this function: every call allocates — append into a reused caller- or field-owned buffer", id.Name)
}

func (h *hotpathCheck) conversion(call *ast.CallExpr, to types.Type) {
	if types.IsInterface(to) && len(call.Args) == 1 {
		if from := h.info.TypeOf(call.Args[0]); from != nil && !types.IsInterface(from) && !isNil(h.info, call.Args[0]) {
			h.pass.Reportf(call.Pos(), "conversion of %s to interface %s boxes the value on the hot path", from, to)
		}
		return
	}
	if len(call.Args) != 1 {
		return
	}
	from := h.info.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	if isStringByteConv(to, from) {
		// Constant-folded conversions are free.
		if tv, ok := h.info.Types[call.Args[0]]; ok && tv.Value != nil {
			return
		}
		h.pass.Reportf(call.Pos(), "%s(%s) copies its operand on the hot path", to, from)
	}
}

func isStringByteConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Kind() == types.String
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isBytes(from)) || (isBytes(to) && isStr(from))
}

// boxedArgs flags concrete values passed to interface parameters.
func (h *hotpathCheck) boxedArgs(call *ast.CallExpr) {
	sig, ok := h.info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := h.info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isNil(h.info, arg) {
			continue
		}
		h.pass.Reportf(arg.Pos(), "passing %s as interface %s boxes the value on the hot path", at, pt)
	}
}

func (h *hotpathCheck) funcLit(lit *ast.FuncLit) {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured != "" {
			return captured == ""
		}
		v, ok := h.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared in the enclosing function, outside the literal.
		if v.Pos() >= h.decl.Pos() && v.Pos() < lit.Pos() {
			captured = id.Name
		}
		return true
	})
	if captured != "" {
		h.pass.Reportf(lit.Pos(), "closure captures %s: captured variables escape to the heap on the hot path", captured)
	} else {
		h.pass.Reportf(lit.Pos(), "function literal allocates its closure object on the hot path")
	}
}

func (h *hotpathCheck) binary(b *ast.BinaryExpr) {
	if b.Op != token.ADD {
		return
	}
	t := h.info.TypeOf(b)
	if t == nil {
		return
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsString == 0 {
		return
	}
	// Constant folding is free.
	if tv, ok := h.info.Types[b]; ok && tv.Value != nil {
		return
	}
	h.pass.Reportf(b.Pos(), "string concatenation allocates on the hot path")
}

func (h *hotpathCheck) composite(lit *ast.CompositeLit) {
	t := h.info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		h.pass.Reportf(lit.Pos(), "slice literal allocates on the hot path")
	case *types.Map:
		h.pass.Reportf(lit.Pos(), "map literal allocates on the hot path")
	}
	// Value struct/array literals live in registers or the caller's
	// frame; they are free unless their address is taken (flagged at
	// the & operator).
}

func (h *hotpathCheck) returns(ret *ast.ReturnStmt) {
	sig, _ := h.info.Defs[h.decl.Name].(*types.Func)
	if sig == nil {
		return
	}
	results := sig.Type().(*types.Signature).Results()
	if results.Len() != len(ret.Results) {
		return // bare return or single multi-value call
	}
	for i, r := range ret.Results {
		rt := results.At(i).Type()
		if !types.IsInterface(rt) {
			continue
		}
		at := h.info.TypeOf(r)
		if at == nil || types.IsInterface(at) || isNil(h.info, r) {
			continue
		}
		h.pass.Reportf(r.Pos(), "returning %s as interface %s boxes the value on the hot path", at, rt)
	}
}

func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
