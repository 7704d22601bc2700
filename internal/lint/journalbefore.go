package lint

import (
	"go/ast"
	"go/types"
)

// JournalBefore enforces the daemon's journal-before-mutate discipline:
// every control-plane mutation must be written ahead to the WAL before
// it is applied, or replay diverges from the live daemon. The raw
// state mutators — directory insert/remove, manager membership, the
// chip's tile ledger — are annotated
// //angstrom:journaled mutator; the persist.go wrappers that commit a
// record first (and the replay paths that re-execute committed
// records) are annotated //angstrom:journaled writer. Any other call
// site of a mutator is a mutation that could silently skip the WAL.
//
// The check applies inside packages that contain at least one writer
// (the journaled control plane, internal/server): library packages and
// their own tests may call mutators freely — the discipline binds the
// layer that owns the journal, not the primitives.
var JournalBefore = &Analyzer{
	Name: "journalbefore",
	Doc:  "flag calls to //angstrom:journaled mutators outside //angstrom:journaled writers",
	Run:  runJournalBefore,
}

func runJournalBefore(pass *Pass) error {
	// Does this package own journaling discipline (contain a writer)?
	journaled := false
	funcDecls(pass.Pkg, func(_ *ast.FuncDecl, _ *types.Func, key string) {
		if pass.Ann.Fn(key).Writer {
			journaled = true
		}
	})
	if !journaled {
		return nil
	}
	info := pass.Pkg.Info
	funcDecls(pass.Pkg, func(decl *ast.FuncDecl, obj *types.Func, key string) {
		if pass.Ann.Fn(key).Writer {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := callee(info, call)
			if f == nil {
				return true
			}
			if pass.Ann.Fn(FuncKey(f)).Mutator {
				pass.Reportf(call.Pos(), "call to journaled mutator %s outside a journaling writer: journal the mutation first (see persist.go) or annotate the caller //angstrom:journaled writer", f.Name())
			}
			return true
		})
	})
	return nil
}
