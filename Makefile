GO ?= go

.PHONY: all build test lint fuzz bench benchgate baselines expdiff fmt

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint builds the simvet vettool and runs the full determinism & protocol
# analyzer suite over every package, then the analyzers' own fixture tests.
# Findings fail the build; escapes need a justified //lint:allow comment.
lint:
	$(GO) build -o bin/simvet ./cmd/simvet
	$(GO) vet -vettool=bin/simvet ./...
	$(GO) test ./internal/lint/simvet/

fuzz:
	$(GO) test -fuzz=FuzzUnmarshalRoundTrip -fuzztime=10s ./internal/wire

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# benchgate regenerates the gated quick-scale experiments and diffs them
# against the committed baselines under bench/baselines/.
benchgate:
	$(GO) run ./cmd/tsuebench -exp saturation -scale quick -json
	$(GO) run ./cmd/tsuebench -exp obs -scale quick -json
	$(GO) run ./cmd/benchgate

# baselines refreshes the committed benchgate baselines from fresh runs.
# Only do this deliberately, with the perf delta understood and explained.
baselines: benchgate
	cp BENCH_saturation.json BENCH_obs.json bench/baselines/

# expdiff is the refactoring oracle: every experiment's stdout and
# BENCH_<exp>.json at the work tree must be byte-identical to BASE's
# (host-clock fields stripped). About 3 minutes on two cores.
expdiff:
	scripts/expdiff.sh $(BASE)

fmt:
	gofmt -w .
