package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnusedExportTestdata(t *testing.T) {
	runTestdata(t, []*Analyzer{UnusedExport}, "internal/exportlib", "exportuser")
}

// An allow without a reason is an annotation error, and it waives
// nothing: the export it sits on is still reported.
func TestUnusedExportBareAllowWaivesNothing(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", `package p

//lint:allow unusedexport
func Seam() {}
`, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	tpkg, err := (&types.Config{}).Check("m/internal/p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*Package{{Path: "m/internal/p", Files: []*ast.File{f}, Types: tpkg, Info: info}}
	idx, err := BuildIndex(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(fset, pkgs, idx, []*Analyzer{UnusedExport})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	if len(diags) != 2 || diags[0].Analyzer != "annotations" || diags[1].Analyzer != "unusedexport" ||
		!strings.Contains(diags[0].Message, "requires an analyzer name and a reason") ||
		!strings.Contains(diags[1].Message, "m/internal/p.Seam") {
		t.Fatalf("findings = %q, want the annotations error and the unused Seam", got)
	}
}

// Only a load of every package in the module can show that nothing uses
// an export: a narrow pattern leaves the users out, and the pass must
// then stay silent rather than report exports they reach.
func TestUnusedExportNeedsTheWholeModule(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":              "module m\n\ngo 1.24\n",
		"internal/lib/lib.go": "package lib\n\nfunc Used() {}\n\nfunc Unused() {}\n",
		"cmd/app/main.go":     "package main\n\nimport \"m/internal/lib\"\n\nfunc main() { lib.Used() }\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings := func(pattern string) []string {
		fset, pkgs, idx, err := Load(dir, pattern)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := RunAnalyzers(fset, pkgs, idx, []*Analyzer{UnusedExport})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, d := range diags {
			out = append(out, d.Message)
		}
		return out
	}
	if got := findings("./..."); len(got) != 1 || !strings.HasPrefix(got[0], "m/internal/lib.Unused ") {
		t.Fatalf("whole-module findings = %q, want only m/internal/lib.Unused", got)
	}
	if got := findings("./internal/..."); len(got) != 0 {
		t.Fatalf("findings from a partial load = %q, want none", got)
	}
}
