# Angstrom/SEEC reproduction — build, verify, and benchmark targets.
#
#   make build   compile every package
#   make vet     static analysis
#   make lint    vet + angstromlint (the repo's contract analyzers)
#   make docs    fail if any internal, cmd or examples package lacks a
#                package comment, or if a `go run ./<pkg>` in the docs or
#                in a Go comment names no package
#   make fmt-check  fail if gofmt would change any Go file outside testdata/
#   make loc     non-test Go lines outside benchmark/ (the figure a
#                simplification PR reports the delta of in CHANGES.md)
#   make knobs   settable values, the other figure a simplification PR
#                reports: flags the flag package defines in non-test
#                cmd/ and examples/ code, plus Make ?= variables, plus
#                exported fields of server.Config, server.ChipConfig and
#                core.Options (a field list "A, B T" counts two)
#   make delta   both figures for HEAD (a git archive export) and for the
#                working tree, then the diff of the two knob-name lists
#                ("<" only HEAD has the knob, ">" only the tree has it)
#   make test    tier-1 verification (build + fmt-check + lint + docs +
#                scenarios + the allocation contracts without -race +
#                full test suite with -race)
#   make scenarios  the scenario torture tier: builtin scenarios vs
#                   oracle-regret budgets + byte-identical replay gates
#   make allocs  the zero-allocation contracts (Test*Alloc*) without
#                -race, so the !race ones run too
#   make bench   run all benchmarks with allocation stats into bench.out,
#                for profiling and per-layer attribution
#
# The performance gate is benchmark/ (see BENCHMARKS.md): repeated
# end-to-end runs compared against the parent commit's within each
# metric's bound. Allocation-free hot paths are gated by exact tests.

GO ?= go

.PHONY: build test scenarios allocs bench vet lint docs fmt-check loc knobs delta clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# angstromlint enforces the repo's own contracts: deterministic scopes,
# zero-allocation hot paths, journal-before-mutate, clock discipline,
# and no exported internal/ API that only tests use (see
# ARCHITECTURE.md, "Static analysis & contracts").
lint: vet
	$(GO) run ./cmd/angstromlint ./...

# Godoc coverage gate: every internal, cmd and examples package must
# carry a package comment (go list's .Doc is the synopsis go doc
# renders; empty means the package clause has no doc comment anywhere
# in the package). Then every `go run ./<pkg>` the docs or a Go comment
# tell a reader to type must name a package go list resolves, so a
# deleted or moved command cannot leave its run line behind.
docs:
	@missing=$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/... ./cmd/... ./examples/...); \
	if [ -n "$$missing" ]; then \
		echo "packages missing a package comment:"; echo "$$missing"; exit 1; \
	fi; \
	echo "package docs: all internal, cmd and examples packages documented"; \
	runs=$$({ cat README.md ARCHITECTURE.md BENCHMARKS.md docs/*.md benchmark/README.md; \
		find . -name '*.go' ! -path './.bench_build/*' -exec grep -h '^[[:space:]]*//' {} +; } | \
		grep -oE 'go run \./[A-Za-z0-9_./-]+' | sed -E 's/^go run //; s/([^.])\.$$/\1/' | LC_ALL=C sort -u); \
	if ! $(GO) list $$runs > /dev/null; then \
		echo "a go run command above names no package"; exit 1; \
	fi; \
	echo "run commands: all $$(echo $$runs | wc -w) go run targets resolve"

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

# Settable values (see the header for the rule): one sorted line per
# value ("cmd/angstromd -addr", "server.Config.Cores", "Makefile GO"),
# then the count. Compare against the parent commit's.
KNOB_STRUCTS = internal/server/daemon.go:Config internal/server/chip.go:ChipConfig internal/core/runtime.go:Options
knobs:
	@flags=$$(find cmd examples -name '*.go' ! -name '*_test.go' -print0 | xargs -0 awk \
		'/flag\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var)(Var)?\(/ { \
			d = FILENAME; sub(/\/[^\/]*$$/, "", d); match($$0, /"[^"]*"/); print d " -" substr($$0, RSTART + 1, RLENGTH - 2)}'); \
	vars=$$(sed -nE 's/^([A-Za-z_][A-Za-z0-9_]*) *\?=.*/Makefile \1/p' Makefile); \
	fields=$$(for s in $(KNOB_STRUCTS); do \
		f=$${s%%:*}; p=$${f%/*}; \
		awk -v t="$${s#*:}" -v p="$${p##*/}" '$$0 == "type " t " struct {" {on=1; next} on && /^}/ {on=0} \
			on && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*/) { \
				n = split(substr($$0, RSTART + 1, RLENGTH - 1), f, ", "); for (i = 1; i <= n; i++) print p "." t "." f[i]}' "$$f"; \
	done); \
	printf '%s\n' "$$flags" "$$vars" "$$fields" | grep . | LC_ALL=C sort; \
	nf=$$(printf '%s\n' "$$flags" | grep -c .); nv=$$(printf '%s\n' "$$vars" | grep -c .); \
	nc=$$(printf '%s\n' "$$fields" | grep -c .); \
	echo "$$((nf + nv + nc)) settable values ($$nf flags, $$nv make variables, $$nc config fields)"

# What the working tree changes against HEAD, by the figures above. Both
# sides run this Makefile's recipes, so a recipe change moves neither
# side alone. The export lives in a temporary directory removed on exit.
delta:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/head" && \
	git archive HEAD | tar -x -C "$$tmp/head" && \
	sub='$(MAKE) -s --no-print-directory -f $(CURDIR)/Makefile' && \
	echo "loc   HEAD $$($$sub -C "$$tmp/head" loc)   tree $$($$sub loc)" && \
	$$sub -C "$$tmp/head" knobs > "$$tmp/head.knobs" && $$sub knobs > "$$tmp/tree.knobs" && \
	echo "knobs HEAD $$(tail -n 1 "$$tmp/head.knobs")" && \
	echo "knobs tree $$(tail -n 1 "$$tmp/tree.knobs")" && \
	sed '$$d' "$$tmp/head.knobs" > "$$tmp/head.names" && sed '$$d' "$$tmp/tree.knobs" > "$$tmp/tree.names" && \
	{ diff "$$tmp/head.names" "$$tmp/tree.names"; test $$? -le 1; }

# The scenario tier: every builtin torture scenario (flash crowd, goal
# thrash, crash-restart, SLO classes, ...) must meet its oracle-regret
# budgets and replay byte-identically across daemon layouts, under -race.
scenarios:
	$(GO) test -race -run 'TestScenario' ./internal/scenario

# The zero-allocation contracts fail on a single allocation. Those that
# go through a sync.Pool are built !race (the race detector makes Put
# drop items on purpose), so -race alone would skip them.
allocs:
	$(GO) test -run 'Alloc' ./...

# -shuffle=on randomizes test order within each package so inter-test
# ordering dependencies fail loudly instead of lurking.
test: build fmt-check lint docs scenarios allocs
	$(GO) test -race -shuffle=on ./...

# The root package holds the benchmarks that go through exported API;
# internal/server holds the one that needs the unexported directory.
bench:
	$(GO) test -run '^$$' -bench . -benchmem . ./internal/server | tee bench.out

clean:
	rm -f bench.out
