package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// indexSource builds an annotation Index from one inline source file
// (no imports allowed: the test type-checker has no importer).
func indexSource(t *testing.T, src string) (*Index, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := NewInfo()
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	pkg := &Package{Path: "p", Files: []*ast.File{f}, Types: tpkg, Info: info}
	idx, err := BuildIndex(fset, []*Package{pkg})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return idx, fset
}

func scanErrors(idx *Index) []string {
	var msgs []string
	for _, d := range idx.Errors() {
		msgs = append(msgs, d.Message)
	}
	return msgs
}

func wantNoErrors(t *testing.T, idx *Index) {
	t.Helper()
	if errs := scanErrors(idx); len(errs) != 0 {
		t.Fatalf("unexpected scan errors: %v", errs)
	}
}

func wantOneError(t *testing.T, idx *Index, substr string) {
	t.Helper()
	errs := scanErrors(idx)
	if len(errs) != 1 {
		t.Fatalf("want exactly one scan error containing %q, got %v", substr, errs)
	}
	if !strings.Contains(errs[0], substr) {
		t.Fatalf("scan error %q does not contain %q", errs[0], substr)
	}
}

func TestDirectiveOnFunc(t *testing.T) {
	idx, _ := indexSource(t, `package p

//angstrom:deterministic
func Det() {}

//angstrom:hotpath
func Hot() {}
`)
	wantNoErrors(t, idx)
	if !idx.Fn("p.Det").Deterministic {
		t.Errorf("p.Det not marked deterministic: %+v", idx.Fn("p.Det"))
	}
	if !idx.Deterministic("p", "p.Det") {
		t.Errorf("Deterministic(p, p.Det) = false")
	}
	if !idx.Fn("p.Hot").Hotpath {
		t.Errorf("p.Hot not marked hotpath: %+v", idx.Fn("p.Hot"))
	}
	if idx.Fn("p.Hot").Deterministic || idx.Fn("p.Det").Hotpath {
		t.Errorf("contracts leaked across functions")
	}
}

func TestDirectiveOnMethod(t *testing.T) {
	idx, _ := indexSource(t, `package p

type Store struct{ n int }

// Insert mutates journaled state.
//
//angstrom:journaled mutator
func (s *Store) Insert() { s.n++ }

//angstrom:journaled writer
func (s Store) Log() {}
`)
	wantNoErrors(t, idx)
	// Pointer receivers are normalized away in the key.
	if !idx.Fn("p.(Store).Insert").Mutator {
		t.Errorf("p.(Store).Insert not marked mutator: %+v", idx.Fn("p.(Store).Insert"))
	}
	if !idx.Fn("p.(Store).Log").Writer {
		t.Errorf("p.(Store).Log not marked writer: %+v", idx.Fn("p.(Store).Log"))
	}
}

func TestDirectiveOnPackageClause(t *testing.T) {
	idx, _ := indexSource(t, `// Package p is reproducible end to end.
//
//angstrom:deterministic
package p

func anything() {}
`)
	wantNoErrors(t, idx)
	if !idx.detPkgs["p"] {
		t.Fatalf("package directive not recorded")
	}
	if !idx.Deterministic("p", "p.anything") {
		t.Errorf("package annotation does not cover member functions")
	}
}

func TestUnknownDirectiveIsError(t *testing.T) {
	idx, _ := indexSource(t, `package p

//angstrom:frobnicate
func f() {}
`)
	wantOneError(t, idx, "unknown directive //angstrom:frobnicate")
}

func TestDirectiveArgValidation(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{
			"deterministic rejects arguments",
			"package p\n\n//angstrom:deterministic extra\nfunc f() {}\n",
			"takes no arguments",
		},
		{
			"journaled requires role",
			"package p\n\n//angstrom:journaled\nfunc f() {}\n",
			"requires exactly one of: mutator, writer",
		},
		{
			"journaled rejects unknown role",
			"package p\n\n//angstrom:journaled observer\nfunc f() {}\n",
			"requires exactly one of: mutator, writer",
		},
		{
			"hotpath is function-only",
			"//angstrom:hotpath\npackage p\n",
			"applies to functions, not packages",
		},
		{
			"misplaced directive",
			"package p\n\n//angstrom:deterministic\nvar x = 1\n",
			"misplaced //angstrom:deterministic directive",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx, _ := indexSource(t, tc.src)
			wantOneError(t, idx, tc.wantErr)
		})
	}
}

func TestAllowParsing(t *testing.T) {
	idx, _ := indexSource(t, `package p

func f() int {
	//lint:allow determinism fixture needs ambient entropy
	return 1
}
`)
	wantNoErrors(t, idx)
	// The allow covers its own line and the line below.
	if !idx.Allowed(Diagnostic{Pos: token.Position{Filename: "src.go", Line: 5}, Analyzer: "determinism"}) {
		t.Errorf("line below the allow comment not suppressed")
	}
	if idx.Allowed(Diagnostic{Pos: token.Position{Filename: "src.go", Line: 5}, Analyzer: "hotpath"}) {
		t.Errorf("allow leaked to a different analyzer")
	}
	if idx.Allowed(Diagnostic{Pos: token.Position{Filename: "src.go", Line: 3}, Analyzer: "determinism"}) {
		t.Errorf("allow leaked to an unrelated line")
	}
}

func TestAllowOnFuncDocCoversWholeBody(t *testing.T) {
	idx, _ := indexSource(t, `package p

// f is a cold path.
//
//lint:allow hotpath cold path, allocation cost is irrelevant
func f() int {
	return 1
}
`)
	wantNoErrors(t, idx)
	for line := 6; line <= 8; line++ {
		if !idx.Allowed(Diagnostic{Pos: token.Position{Filename: "src.go", Line: line}, Analyzer: "hotpath"}) {
			t.Errorf("line %d inside f not covered by the doc-comment allow", line)
		}
	}
	if idx.Allowed(Diagnostic{Pos: token.Position{Filename: "src.go", Line: 1}, Analyzer: "hotpath"}) {
		t.Errorf("doc-comment allow leaked outside the function span")
	}
}

func TestAllowValidation(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{
			"missing reason",
			"package p\n\n//lint:allow determinism\nfunc f() {}\n",
			"requires an analyzer name and a reason",
		},
		{
			"unknown analyzer",
			"package p\n\n//lint:allow speling because reasons\nfunc f() {}\n",
			`unknown analyzer "speling"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx, _ := indexSource(t, tc.src)
			wantOneError(t, idx, tc.wantErr)
		})
	}
}
