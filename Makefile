# Angstrom/SEEC reproduction — build, verify, and benchmark targets.
#
#   make build   compile every package
#   make vet     static analysis
#   make lint    vet + angstromlint (the repo's contract analyzers)
#   make docs    fail if any internal package lacks a package comment
#   make fmt-check  fail if gofmt would change any Go file outside testdata/
#   make loc     non-test Go lines outside benchmark/ (the figure a
#                simplification PR reports the delta of in CHANGES.md)
#   make test    tier-1 verification (build + fmt-check + lint + docs + scenarios + full test suite with -race)
#   make scenarios  the scenario torture tier: builtin scenarios vs
#                   oracle-regret budgets + byte-identical replay gates
#   make bench   run all benchmarks with allocation stats into bench.out
#   make bench-json  bench + record the BENCH_<date>.json trajectory file
#   make bench-compare  bench + fail on >20% regression of gated
#                       benchmarks vs OLD_BENCH (default: the latest
#                       BENCH_*.json snapshot)

GO ?= go
# Default baseline: the latest *committed* snapshot, so bench-json
# followed by bench-compare never compares a run against itself.
OLD_BENCH ?= $(lastword $(sort $(shell git ls-files 'BENCH_*.json')))

.PHONY: build test scenarios bench bench-json bench-compare vet lint docs fmt-check loc clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# angstromlint enforces the repo's own contracts: deterministic scopes,
# zero-allocation hot paths, journal-before-mutate, and clock
# discipline (see ARCHITECTURE.md, "Static analysis & contracts").
lint: vet
	$(GO) run ./cmd/angstromlint ./...

# Godoc coverage gate: every internal package must carry a package
# comment (go list's .Doc is the synopsis go doc renders; empty means
# the package clause has no doc comment anywhere in the package).
docs:
	@missing=$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/... ./cmd/...); \
	if [ -n "$$missing" ]; then \
		echo "packages missing a package comment:"; echo "$$missing"; exit 1; \
	fi; \
	echo "package docs: all internal and cmd packages documented"

# Formatting gate: gofmt must have nothing to say about any committed Go
# file. testdata/ is exempt (analyzer fixtures are laid out for their
# // want comments) and so is the benchmark's build directory.
fmt-check:
	@unformatted=$$(gofmt -l . | grep -v -e '/testdata/' -e '^\.bench_build/'); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt would reformat:"; echo "$$unformatted"; exit 1; \
	fi; \
	echo "gofmt: clean"

# Lines of non-test Go outside benchmark/ (test data and the benchmark's
# build directory excluded): compare against the parent commit's count.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l

# The scenario tier: every builtin torture scenario (flash crowd, goal
# thrash, crash-restart, SLO classes, ...) must meet its oracle-regret
# budgets and replay byte-identically across daemon layouts, under -race.
scenarios:
	$(GO) test -race -run 'TestScenario' ./internal/scenario

# -shuffle=on randomizes test order within each package so inter-test
# ordering dependencies fail loudly instead of lurking.
test: build fmt-check lint docs scenarios
	$(GO) test -race -shuffle=on ./...

# The root package holds the benchmarks that go through exported API;
# internal/server holds the one that needs the unexported directory.
bench:
	$(GO) test -run '^$$' -bench . -benchmem . ./internal/server | tee bench.out

bench-json: bench
	$(GO) run ./cmd/benchjson bench.out

# The baseline is read from HEAD, not the working tree, so a bench-json
# run that rewrote today's snapshot cannot be compared against itself;
# an explicitly supplied OLD_BENCH that is not committed falls back to
# the file on disk.
bench-compare: bench
	$(if $(OLD_BENCH),,$(error bench-compare: no BENCH_*.json baseline; set OLD_BENCH=<snapshot>))
	@(git show HEAD:$(OLD_BENCH) 2>/dev/null || cat $(OLD_BENCH)) > .bench-baseline.json; \
	$(GO) run ./cmd/benchjson -compare .bench-baseline.json bench.out; st=$$?; \
	rm -f .bench-baseline.json; exit $$st

clean:
	rm -f bench.out .bench-baseline.json
