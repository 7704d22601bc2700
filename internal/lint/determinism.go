package lint

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the repro's bit-reproducibility contract inside
// //angstrom:deterministic scopes: the sweep engine must produce
// byte-identical results at any worker count, journal replay must
// rebuild a daemon byte-identical to one that never crashed, and the
// chip model must aggregate floats in a schedule-independent order.
// Four bug classes are flagged:
//
//   - wall-clock reads (time.Now, time.Since): replayed code must take
//     time from its caller's settable clock, never from the host;
//   - the global math/rand source: unseeded process-global randomness
//     differs run to run — derive a seeded rand.New(...) from the
//     configuration instead;
//   - goroutine spawns: concurrency belongs in the sweep and tick worker
//     pools, whose merge order is fixed; an ad-hoc goroutine races its
//     results into whatever order the scheduler picks;
//   - map iteration feeding results: Go randomizes range-over-map
//     order, the exact bug class fixed when SharedChip moved from map
//     iteration to acquisition order. Collecting keys and sorting
//     before use is recognized and accepted.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag wall clocks, global RNG, goroutine spawns, and map-order aggregation in //angstrom:deterministic scopes",
	Run:  runDeterminism,
}

// Package-level rand functions that draw from the process-global,
// run-dependent source. Constructors for seeded generators are fine.
var seededConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func runDeterminism(pass *Pass) error {
	info := pass.Pkg.Info
	funcDecls(pass.Pkg, func(decl *ast.FuncDecl, obj *types.Func, key string) {
		if !pass.Ann.Deterministic(pass.Pkg.Path, key) {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(pass, info, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine spawned in deterministic scope: fan out through the sweep or tick worker pool, whose merge order is fixed")
			case *ast.RangeStmt:
				checkMapRange(pass, info, decl.Body, n)
			}
			return true
		})
	})
	return nil
}

func checkDeterministicCall(pass *Pass, info *types.Info, call *ast.CallExpr) {
	f := callee(info, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	switch f.Pkg().Path() {
	case "time":
		if !hasRecv(f) && (f.Name() == "Now" || f.Name() == "Since" || f.Name() == "Until") {
			pass.Reportf(call.Pos(), "time.%s in deterministic scope: take time from the caller's settable clock (sim.Nower)", f.Name())
		}
	case "math/rand", "math/rand/v2":
		if !hasRecv(f) && !seededConstructors[f.Name()] {
			pass.Reportf(call.Pos(), "%s.%s draws from the global unseeded source: derive a seeded rand.New(...) from the configuration", f.Pkg().Name(), f.Name())
		}
	}
}

// checkMapRange flags `range` over a map unless it is the recognized
// collect-then-sort idiom: every statement in the loop body appends the
// iteration variables to slices, and each such slice is later passed to
// a sort.* or slices.Sort* call in the same function.
func checkMapRange(pass *Pass, info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	t := info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if collectThenSort(info, fnBody, rng) {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration order is randomized and this range feeds results in a deterministic scope: collect keys, sort, then iterate")
}

func collectThenSort(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt) bool {
	var collected []types.Object
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fid.Name != "append" {
			return false
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj == nil {
			return false
		}
		collected = append(collected, obj)
	}
	if len(collected) == 0 {
		return false
	}
	// Every collected slice must flow into a sort after the loop.
	for _, obj := range collected {
		if !sortedAfter(info, fnBody, rng, obj) {
			return false
		}
	}
	return true
}

func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || sorted {
			return !sorted
		}
		f := callee(info, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		if p := f.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}
