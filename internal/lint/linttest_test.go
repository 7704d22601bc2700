package lint

// The analysistest-style harness: each testdata/src/<pkg> package seeds
// violations and marks the expected findings with `// want "regex"`
// comments on the offending line, mirroring
// golang.org/x/tools/go/analysis/analysistest (which this offline build
// cannot depend on). A test package may import another testdata
// package by its path under testdata/src, and anything in GOROOT
// (type-checked from source), but nothing from this module.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// testLoader caches type-checked testdata packages across tests: the
// source importer re-checks imported stdlib packages from GOROOT
// source, which is worth paying once, not once per test.
var testLoader struct {
	mu   sync.Mutex
	fset *token.FileSet
	imp  types.Importer
	pkgs map[string]*Package
}

func loadTestPkg(t *testing.T, name string) *Package {
	t.Helper()
	tl := &testLoader
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.fset == nil {
		tl.fset = token.NewFileSet()
		tl.imp = importer.ForCompiler(tl.fset, "source", nil)
		tl.pkgs = make(map[string]*Package)
	}
	return loadTestPkgLocked(t, name)
}

// testImporter resolves imports of testdata packages from testdata/src
// and everything else from GOROOT source. It runs under testLoader.mu.
type testImporter struct{ t *testing.T }

func (ti testImporter) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join("testdata", "src", path)); err == nil {
		return loadTestPkgLocked(ti.t, path).Types, nil
	}
	return testLoader.imp.Import(path)
}

func loadTestPkgLocked(t *testing.T, name string) *Package {
	t.Helper()
	tl := &testLoader
	if pkg, ok := tl.pkgs[name]; ok {
		return pkg
	}
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, perr := parser.ParseFile(tl.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			t.Fatalf("parse: %v", perr)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: testImporter{t}}
	tpkg, err := conf.Check(name, tl.fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", name, err)
	}
	pkg := &Package{Path: name, Files: files, Types: tpkg, Info: info}
	tl.pkgs[name] = pkg
	return pkg
}

// expectation is one `// want "regex"` comment.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var quotedRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

func collectWants(t *testing.T, fset *token.FileSet, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					i := strings.Index(c.Text, "want ")
					if i < 0 {
						continue
					}
					pos := fset.Position(c.Pos())
					ms := quotedRe.FindAllStringSubmatch(c.Text[i+len("want "):], -1)
					if len(ms) == 0 {
						t.Fatalf("%s:%d: want comment without a quoted pattern", pos.Filename, pos.Line)
					}
					for _, m := range ms {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: m[1]})
					}
				}
			}
		}
	}
	return wants
}

// runTestdata runs analyzers over the named testdata packages and
// checks the findings against the packages' want comments: every
// finding must be expected, and every expectation must fire.
func runTestdata(t *testing.T, analyzers []*Analyzer, names ...string) {
	t.Helper()
	var pkgs []*Package
	for _, name := range names {
		pkgs = append(pkgs, loadTestPkg(t, name))
	}
	idx, err := BuildIndex(testLoader.fset, pkgs)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	diags, err := RunAnalyzers(testLoader.fset, pkgs, idx, analyzers)
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	wants := collectWants(t, testLoader.fset, pkgs)
outer:
	for _, d := range diags {
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				continue outer
			}
		}
		t.Errorf("unexpected finding: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %v finding matched %q", w.file, w.line, analyzerNames(analyzers), w.raw)
		}
	}
}

func analyzerNames(as []*Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

func TestDeterminismTestdata(t *testing.T) {
	runTestdata(t, []*Analyzer{Determinism}, "determ")
}

func TestHotpathTestdata(t *testing.T) {
	runTestdata(t, []*Analyzer{Hotpath}, "hot")
}

func TestJournalBeforeTestdata(t *testing.T) {
	// jrnlfree has a mutator but no writer: the check must stay inactive
	// there (no expectations in the package, so any finding fails).
	runTestdata(t, []*Analyzer{JournalBefore}, "jrnl", "jrnlfree")
}

func TestClockDisciplineTestdata(t *testing.T) {
	runTestdata(t, []*Analyzer{ClockDiscipline}, "clockd")
}

func TestShadowTestdata(t *testing.T) {
	runTestdata(t, []*Analyzer{Shadow}, "shadowed")
}
