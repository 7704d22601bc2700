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
	os.Args = append([]string{"loadgen"}, args...)
	os.Stdout = w
	flag.CommandLine = flag.NewFlagSet("loadgen", flag.ExitOnError)
	defer func() { os.Args, os.Stdout, flag.CommandLine = oldArgs, oldStdout, oldFlags }()
	main()
	w.Close()
	return <-out
}

func TestLoadgenSmoke(t *testing.T) {
	for _, args := range [][]string{
		{"-apps", "20", "-duration", "500ms"},
		{"-apps", "20", "-duration", "500ms", "-wire"},
	} {
		got := runMain(t, args...)
		if !strings.Contains(got, "=== loadgen: 20 apps") || !strings.Contains(got, ", 0 errors,") ||
			!strings.Contains(got, "20 enrolled") {
			t.Fatalf("%v: no clean summary in output:\n%s", args, got)
		}
	}
}
