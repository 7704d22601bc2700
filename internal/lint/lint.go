// Package lint is angstromlint: a static-analysis suite that enforces
// the repository's determinism, hot-path, and journaling contracts at
// compile time instead of hoping a runtime test happens to cross the
// offending path, and keeps the internal API no larger than the code
// that uses it (unusedexport).
//
// The suite is a multichecker in the spirit of
// golang.org/x/tools/go/analysis, rebuilt self-contained on the
// standard library (go/ast, go/types, and `go list -export` for
// dependency type information) because this repository builds
// offline with no third-party modules. The analyzer surface mirrors
// the x/tools shape — an Analyzer with a Run(*Pass) — so the passes
// read like stock go/analysis passes and could be ported onto the
// real driver by swapping the loader.
//
// Contracts are declared in the code they protect with machine-readable
// directives (see annotate.go):
//
//	//angstrom:deterministic      this function (or package) must be
//	                              bit-reproducible: no wall clock, no
//	                              global RNG, no ad-hoc goroutines, no
//	                              map-order-dependent aggregation
//	//angstrom:hotpath            this function is allocation-gated:
//	                              no fmt/errors on hot branches, no
//	                              interface boxing, no capturing
//	                              closures, no fresh slices
//	//angstrom:journaled mutator  calls to this state mutator must come
//	                              from a journaling writer
//	//angstrom:journaled writer   this function journals ahead of (or
//	                              replays) the mutations it applies
//
// False positives are suppressed in place, each with an auditable
// reason:
//
//	//lint:allow <analyzer> <reason>
//
// either on (or immediately above) the offending line, or in the doc
// comment of a top-level declaration (a function, or a const, var or
// type declaration) to waive the whole declaration. An export only
// tests use stays only as a waived test seam:
//
//	//lint:allow unusedexport crash-recovery tests image the filesystem through it
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Pass carries one analyzer's view of the code under analysis. Per-
// package analyzers receive one Pass per package (Pkg set); module
// analyzers (Analyzer.Module true) receive a single Pass with Pkg nil
// and every loaded package in Module.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package   // the package under analysis (nil for module passes)
	Module   []*Package // every module package, in load order
	Ann      *Index     // module-wide annotation index

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// An Analyzer is one static-analysis pass.
type Analyzer struct {
	Name string
	Doc  string
	// Module selects whole-module analysis (one pass over every
	// package, e.g. for call-graph reachability) instead of the default
	// one-pass-per-package.
	Module bool
	Run    func(*Pass) error
}

// All is the angstromlint multichecker: the four contract analyzers,
// unusedexport, and shadow, a stricter-than-vet pass `go vet` does not
// run by default. (shadow is a self-contained reimplementation of the
// x/tools pass of the same name; the x/tools original cannot be
// vendored into this offline, zero-dependency build.)
var All = []*Analyzer{
	Determinism,
	Hotpath,
	JournalBefore,
	ClockDiscipline,
	UnusedExport,
	Shadow,
}

// ByName resolves an analyzer in All (nil if unknown).
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies each analyzer to the loaded module, filters the
// findings through the //lint:allow suppressions recorded in idx, and
// returns them in file/line order. Annotation errors (unknown
// directives, malformed allows) are prepended: a typoed contract must
// fail the build, not silently stop being enforced.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, idx *Index, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Module: pkgs, Ann: idx, diags: &diags}
		if a.Module {
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range pkgs {
			pass.Pkg = pkg
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s (%s): %w", a.Name, pkg.Path, err)
			}
		}
	}
	kept := idx.Errors()
	for _, d := range diags {
		if !idx.Allowed(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}
