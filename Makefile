# Tier-1 gate (see DESIGN.md §7): vet + build + race-clean tests + a
# one-shot smoke run of the worker-count sweeps (at one and two workers,
# via -cpu), of the two OT micro-benchmarks the group work is sized
# with (the x25519 base phase and the similarity k-of-n shapes), of the
# limb-field and curve kernels under them (the limb dot product through
# limb.Sum among them), of the decision-function sum in its two forms,
# and of one linear and one kernelized similarity evaluation, then a run
# of every example program. fuzz-smoke runs the fuzz targets briefly (CI
# runs it as a separate job).
.PHONY: check vet build test bench-smoke examples bench bench-pair \
	fuzz-smoke lint cover tidy-check wire-regen loc loc-delta

check: vet build test bench-smoke examples

vet:
	go vet ./...

build:
	go build ./...

test:
	go test -race ./...

# SMOKE defines the shell function each bench-smoke line runs:
# `smoke FLAGS PKG NAME...` runs a one-shot `go test -bench='^(NAME|...)$'`
# with FLAGS on PKG, echoes its output, and fails when the test binary
# fails or when any NAME prints no result line — a -bench pattern that
# matches nothing exits 0 on its own, so a renamed or dropped benchmark
# would otherwise hollow the gate out silently.
SMOKE = smoke() { flags=$$1; pkg=$$2; shift 2; pat=$$(echo "$$*" | tr ' ' '|'); \
	out=$$(go test -run='^$$' -benchtime=1x -bench="^($$pat)$$" $$flags "$$pkg") || { echo "$$out"; return 1; }; \
	echo "$$out"; for name in "$$@"; do echo "$$out" | grep -qE "^$$name([-/[:space:]]|$$)" || \
	{ echo "bench-smoke: $$name printed no result in $$pkg" >&2; return 1; }; done; }

bench-smoke:
	@$(SMOKE) && \
	smoke '-cpu 1,2' ./... BenchmarkParallelism_OMPEEndToEnd \
		BenchmarkParallelism_MaskedEvaluations BenchmarkParallelism_PrivateNonlinearQuery && \
	smoke '' ./internal/ot BenchmarkIKNPBase BenchmarkKofN && \
	smoke '' ./internal/field/limb BenchmarkLimbMul BenchmarkLimbSquare BenchmarkLimbInv BenchmarkLimbDot && \
	smoke '' ./internal/ec25519 BenchmarkScalarMult BenchmarkScalarBaseMult && \
	smoke '' ./internal/mvpoly BenchmarkKernelSumEval && \
	smoke '' ./internal/similarity BenchmarkLinearSimilarity BenchmarkKernelSimilarity

# examples builds and runs each program under examples/ (each well under
# a second on a 2-core host) and fails on the first non-zero exit.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; go run "./$$d"; done

# bench runs the repository's one benchmark (see benchmark/README.md).
bench:
	go run ./benchmark -workload all

# bench-pair measures BASE=<git ref> against the working tree in alternating
# pairs and applies the bounds of BENCHMARK.json (scripts/bench_pair.py).
bench-pair:
	python3 scripts/bench_pair.py $(BASE)

fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzBinaryFrameRecv -fuzztime=10s ./internal/transport
	go test -run='^$$' -fuzz=FuzzWireMsgs -fuzztime=10s ./internal/transport
	go test -run='^$$' -fuzz=FuzzPeekHello -fuzztime=10s ./internal/gateway
	go test -run='^$$' -fuzz=FuzzOTWire -fuzztime=10s ./internal/ot
	go test -run='^$$' -fuzz=FuzzOMPEWire -fuzztime=10s ./internal/ompe
	go test -run='^$$' -fuzz=FuzzFromBytes -fuzztime=10s ./internal/field
	go test -run='^$$' -fuzz=FuzzLimbVsBig -fuzztime=10s ./internal/field/limb
	go test -run='^$$' -fuzz=FuzzScalarMult -fuzztime=10s ./internal/ec25519

# wire-regen rewrites the golden wire transcripts under
# internal/transport/testdata/wire — a committed wire-format contract, so
# regeneration is deliberate: the target refuses to run unless
# PPDC_WIRE_REGEN=1 is set explicitly on the command line.
wire-regen:
ifndef PPDC_WIRE_REGEN
	$(error golden transcripts are a wire-format contract; run `PPDC_WIRE_REGEN=1 make wire-regen` to regenerate deliberately)
endif
	PPDC_WIRE_REGEN=1 go test ./internal/transport -run TestGoldenWire -count=1

# lint runs golangci-lint (config in .golangci.yml). CI installs it via
# the official action; locally it needs the binary on PATH.
lint:
	golangci-lint run ./...

# cover writes the profile plus an HTML report and prints the total.
cover:
	go test -coverprofile=coverage.out -covermode=atomic ./...
	go tool cover -html=coverage.out -o coverage.html
	go tool cover -func=coverage.out | tail -1

tidy-check:
	go mod tidy -diff

# loc prints the non-test Go line count outside benchmark/, the size
# figure ROADMAP and CHANGES.md quote.
LOC = find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

loc:
	@$(LOC)

# loc-delta prints the loc figure at BASE=<git ref>, in the working tree,
# and the difference (CI's tier-1 job logs it against the merge base).
loc-delta:
ifndef BASE
	$(error loc-delta compares against a git ref: run `make loc-delta BASE=<ref>`)
endif
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git archive $(BASE) | tar -x -C "$$tmp" && \
	base=$$(cd "$$tmp" && $(LOC)) && head=$$($(LOC)) && \
	echo "loc at $(BASE): $$base" && \
	echo "loc in working tree: $$head" && \
	echo "delta: $$((head - base))"
