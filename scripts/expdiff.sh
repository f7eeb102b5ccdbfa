#!/usr/bin/env bash
# expdiff: the refactoring oracle. The simulator is deterministic per seed,
# so a change that claims to leave behaviour alone must leave every
# experiment's output byte-identical. This builds tsuebench at a base git
# ref and at the work tree, runs every experiment at a small scale on both
# (side by side, one directory each), strips the two host-clock fields
# (the trailing "wall time" line and "wall_ms") and diffs stdout and
# BENCH_<exp>.json. Exit 1 on any difference.
#
# usage: scripts/expdiff.sh <base-git-ref>      (or: make expdiff BASE=<ref>)
set -euo pipefail

base=${1:?usage: expdiff.sh <base-git-ref>}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# git archive rather than git worktree: the checkout is throwaway and must
# leave no trace in the repository's worktree list.
mkdir "$tmp/src" "$tmp/base" "$tmp/head"
git -C "$root" archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/base/tsuebench" ./cmd/tsuebench)
(cd "$root" && go build -o "$tmp/head/tsuebench" ./cmd/tsuebench)

run_side() {
	cd "$1"
	for exp in $(./tsuebench -list | grep -vx all); do
		./tsuebench -exp "$exp" -scale quick -ops 600 -filemb 8 -json >"$exp.out"
		sed -E -i -e 's/wall time [^)]*/wall time -/' "$exp.out"
		sed -E -i -e 's/"wall_ms": [0-9]+/"wall_ms": 0/' "BENCH_$exp.json"
	done
	rm tsuebench
}

(run_side "$tmp/base") &
base_pid=$!
(run_side "$tmp/head") &
head_pid=$!
wait "$base_pid"
wait "$head_pid"

if diff -r "$tmp/base" "$tmp/head"; then
	echo "expdiff: $(ls "$tmp/head" | grep -c '\.out$') experiments byte-identical to $base (stdout and BENCH_*.json, host-clock fields stripped)"
else
	echo "expdiff: output differs from $base" >&2
	exit 1
fi
