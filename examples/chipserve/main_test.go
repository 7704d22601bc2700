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
	os.Args = append([]string{"chipserve"}, args...)
	os.Stdout = w
	flag.CommandLine = flag.NewFlagSet("chipserve", flag.ExitOnError)
	defer func() { os.Args, os.Stdout, flag.CommandLine = oldArgs, oldStdout, oldFlags }()
	main()
	w.Close()
	return <-out
}

func TestChipserveSmoke(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		summary string
	}{
		{[]string{"-apps", "8", "-tiles", "64", "-ticks", "40"}, "all apps converged onto their goal bands"},
		{[]string{"-colocate"}, "the fleet converges anyway"},
	} {
		if got := runMain(t, tc.args...); !strings.Contains(got, tc.summary) {
			t.Fatalf("%v: no summary line in output:\n%s", tc.args, got)
		}
	}
}
