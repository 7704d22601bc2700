// Command angstromlint is the repository's contract multichecker: it
// runs the internal/lint analyzers (determinism, hotpath,
// journalbefore, clockdiscipline, unusedexport, plus the
// stdlib-quality shadow pass) over the packages matching its arguments
// and exits non-zero on any finding. unusedexport reports only when the
// patterns cover the whole module (./...).
//
//	go run ./cmd/angstromlint ./...
//	go run ./cmd/angstromlint -only determinism,hotpath ./internal/...
//
// Contracts are declared in source with //angstrom:* directives and
// false positives waived with //lint:allow <analyzer> <reason>; see
// the internal/lint package documentation for the vocabulary.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"angstrom/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: angstromlint [-only a,b] [-list] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analyzers := lint.All
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "angstromlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "angstromlint: %v\n", err)
		os.Exit(2)
	}
	fset, pkgs, idx, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "angstromlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.RunAnalyzers(fset, pkgs, idx, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "angstromlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Printf("%s\n", d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "angstromlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
