package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// runMain runs main with args and returns what it printed to stdout. A
// log.Fatal or os.Exit in main fails the test binary outright.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	oldArgs, oldStdout, oldFlags := os.Args, os.Stdout, flag.CommandLine
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	os.Args = append([]string{"quickstart"}, args...)
	os.Stdout = w
	flag.CommandLine = flag.NewFlagSet("quickstart", flag.ExitOnError)
	defer func() { os.Args, os.Stdout, flag.CommandLine = oldArgs, oldStdout, oldFlags }()
	main()
	w.Close()
	return <-out
}

func TestQuickstartSmoke(t *testing.T) {
	if got := runMain(t); !strings.Contains(got, "final window rate") {
		t.Fatalf("no summary line in output:\n%s", got)
	}
}
