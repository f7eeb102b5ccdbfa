GO ?= go

.PHONY: all build test lint fuzz bench benchgate baselines expdiff perf perfdiff fmt

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint builds the simvet vettool and runs the full determinism analyzer
# suite over every package, then the analyzers' own fixture tests.
# Findings fail the build; escapes need a justified //lint:allow comment.
lint:
	$(GO) build -o bin/simvet ./cmd/simvet
	$(GO) vet -vettool=bin/simvet ./...
	$(GO) test ./internal/lint/simvet/

fuzz:
	$(GO) test -fuzz=FuzzInsertMatchesReference -fuzztime=10s ./internal/logpool
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

# perf runs the repository's benchmark (bench/tsueperf, a module of its own
# that BENCHMARK.json pins) once: the four workloads at one seed, about 80 s.
# Every metric is printed; the full results land in .bench_build/perf.jsonl
# (compare two such files with `.bench_build/tsueperf -compare a b`).
SEED ?= 11
perf:
	rm -f .bench_build/perf.jsonl
	for w in ali_tsue ten_plr open_tsue recover_tsue; do \
		bash bench/tsueperf/run.sh --workload $$w --seed $(SEED) --seconds 14 --trace 0 -json .bench_build/perf.jsonl || exit 1; \
	done

# perfdiff holds the work tree's benchmark results against BASE's: the two
# sides run alternately on the same seeds (SEEDS="11 12 ..." for more than
# one), every sim_* value must be exactly equal and no end-to-end metric may
# regress beyond its bound. About 3 minutes per seed.
perfdiff:
	scripts/perfdiff.sh $(BASE)

fmt:
	gofmt -w .
