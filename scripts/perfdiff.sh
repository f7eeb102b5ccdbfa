#!/usr/bin/env bash
# perfdiff: the host-clock counterpart of expdiff. It runs the repository's
# benchmark (bench/tsueperf, pinned by BENCHMARK.json) at a base git ref and
# at the work tree — every workload at every seed, the two sides ALTERNATELY
# and never in parallel, because what is measured is this machine's clock —
# then holds the work tree against the base twice over:
#
#   1. every sim_* value must be exactly equal at equal workload and seed
#      (the simulator is deterministic; a host-only change moves none), and
#   2. `tsueperf -compare` must report no regression beyond the benchmark's
#      own bounds (an "unresolved" metric is printed, not failed).
#
# When sim values differ, the diff is followed by a table of seed pairs the
# work tree won, lost and tied per workload and sim_* metric — the count a
# sim-clock gain claim quotes — with a separation column: "yes" when every
# work-tree seed beats every base seed (the two sets of runs do not
# overlap), "=" when every seed ties, "no" otherwise. It holds where
# `tsueperf -compare` reports "unresolved" for a metric whose spread passes
# its bound, whether the sides are bit-identical or fully separated. Exit 1
# on a sim difference or a regression.
# One seed takes about three minutes on two cores; SEEDS="11 12 ... 20"
# gives the ten-seed table a performance claim quotes. The raw results stay
# in .bench_build/perfdiff.{base,head}.jsonl (one line per run, same order
# on both sides).
#
# usage: [SEEDS="11 12"] scripts/perfdiff.sh <base-git-ref>   (or: make perfdiff BASE=<ref>)
set -euo pipefail

base=${1:?usage: perfdiff.sh <base-git-ref>}
seeds=${SEEDS:-11}
workloads="ali_tsue ten_plr open_tsue recover_tsue"
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# git archive, as in expdiff: a throwaway checkout that leaves no trace in
# the repository. Each side builds the benchmark from its own source.
mkdir -p "$tmp/src" "$root/.bench_build"
git -C "$root" archive "$base" | tar -x -C "$tmp/src"
a="$root/.bench_build/perfdiff.base.jsonl"
b="$root/.bench_build/perfdiff.head.jsonl"
rm -f "$a" "$b"

run_one() { # <tree> <workload> <seed> <result file>
	(cd "$1" && bash bench/tsueperf/run.sh --workload "$2" --seed "$3" --seconds 14 --trace 0 -json "$4") >/dev/null
}

n=0
for seed in $seeds; do
	for wl in $workloads; do
		echo "perfdiff: $wl seed $seed" >&2
		# Alternate which side goes first, so slow drift of the machine
		# falls on both sides equally.
		if [ $((n % 2)) -eq 0 ]; then
			run_one "$tmp/src" "$wl" "$seed" "$a"
			run_one "$root" "$wl" "$seed" "$b"
		else
			run_one "$root" "$wl" "$seed" "$b"
			run_one "$tmp/src" "$wl" "$seed" "$a"
		fi
		n=$((n + 1))
	done
done

# sims prints "workload seed metric value" for every sim-clock value of a
# result file. The values are compared as printed: encoding/json writes the
# shortest decimal that round-trips, so equal text is equal bits.
sims() {
	while IFS= read -r line; do
		id=$(grep -o '"workload":"[^"]*","seed":[0-9-]*' <<<"$line")
		grep -o '"sim_[a-z0-9_]*":{"value":[^,}]*' <<<"$line" | sed "s|^|$id |"
	done <"$1" | sort
}

# pairs prints, for every workload and sim_* metric, how many seeds the work
# tree won, lost and tied against the base, and whether the two sides
# separate (sep): "yes" when the work tree's worst seed beats the base's
# best, "=" when every seed ties, "no" otherwise. Which way is better comes
# from the metric's "better" field in BENCHMARK.json; an equal value is a
# tie. Only seeds run on both sides count.
pairs() {
	echo "perfdiff: seed pairs won by the work tree against $base"
	printf '%-14s %-26s %4s %5s %5s %4s\n' workload metric won lost tied sep
	awk '
	FNR == 1 { f++ }
	f == 1 && /"name":/ { gsub(/[",]/, "", $2); name = $2 }
	f == 1 && /"better":/ { gsub(/[",]/, "", $2); better[name] = $2 }
	f > 1 {
		split($1, w, "\""); seed = $1; sub(/.*:/, "", seed)
		split($2, m, "\""); v = $2; sub(/.*:/, "", v)
		k = w[4] " " m[2]
		if (f == 2) { base[k " " seed] = v; next }
		if (!((k " " seed) in base)) next
		a = base[k " " seed] + 0; v += 0
		d = v - a
		if (d == 0) tied[k]++
		else if ((d > 0) == (better[m[2]] == "higher")) won[k]++
		else lost[k]++
		if (!(k in seen) || a < amin[k]) amin[k] = a
		if (!(k in seen) || a > amax[k]) amax[k] = a
		if (!(k in seen) || v < bmin[k]) bmin[k] = v
		if (!(k in seen) || v > bmax[k]) bmax[k] = v
		seen[k] = 1
	}
	END {
		for (k in seen) {
			split(k, p, " ")
			sep = "no"
			if (won[k] + lost[k] == 0) sep = "="
			else if (better[p[2]] == "higher" && bmin[k] > amax[k]) sep = "yes"
			else if (better[p[2]] != "higher" && bmax[k] < amin[k]) sep = "yes"
			printf "%-14s %-26s %4d %5d %5d %4s\n", p[1], p[2], won[k], lost[k], tied[k], sep
		}
	}' "$root/BENCHMARK.json" <(sims "$a") <(sims "$b") | sort
}

status=0
if diff <(sims "$a") <(sims "$b"); then
	echo "perfdiff: every sim_* value of $n runs is identical to $base"
else
	echo "perfdiff: sim-clock values differ from $base (< base, > work tree)" >&2
	pairs
	status=1
fi
"$root/.bench_build/tsueperf" -compare "$a" "$b" || status=1
exit $status
