#!/usr/bin/env bash
# runpatterns: fail when a `go test ... -run '<pattern>'` line in the CI
# workflow names a test that no longer exists. `go test -run` silently
# matches nothing for a stale alternative, so a renamed or deleted test
# would otherwise drop out of its CI step unnoticed. Each |-alternative of
# each pattern must match at least one test, example or fuzz target listed
# by `go test -list` in that line's packages. The bench step's -run '^$'
# is skipped. Patterns are expected to be plain alternations.
#
# It also checks the Makefile's `go test -fuzz=<name>` lines: a -fuzz name
# that matches no fuzz target prints a warning and exits 0, so a renamed
# target would silently stop being fuzzed. Each name must match exactly one
# Fuzz function in its line's package.
#
# usage: scripts/runpatterns.sh [workflow-file]   (default .github/workflows/ci.yml)
set -euo pipefail

wf=${1:-.github/workflows/ci.yml}
status=0
while IFS= read -r line; do
	pat=$(sed -E "s/.* -run '([^']*)'.*/\1/" <<<"$line")
	[ "$pat" = '^$' ] && continue
	rest=$(sed -E "s/.* -run '[^']*'//" <<<"$line")
	read -ra pkgs <<<"$(grep -oE '\./[^ ]*' <<<"$rest" | tr '\n' ' ')"
	# Capture the whole listing first: grep -q on a pipe would exit early
	# and, under pipefail, turn the writer's SIGPIPE into a false miss.
	out=$(go test -list . "${pkgs[@]}")
	list=$(grep -E '^(Test|Example|Fuzz)' <<<"$out" || true)
	IFS='|' read -ra alts <<<"$pat"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$list"; then
			echo "runpatterns: -run alternative '$alt' matches no test in ${pkgs[*]}" >&2
			status=1
		fi
	done
done < <(grep -E "go test .*-run '" "$wf")
while IFS= read -r line; do
	name=$(sed -E 's/.*-fuzz=([^ ]*).*/\1/' <<<"$line")
	pkg=$(grep -oE '\./[^ ]*' <<<"$line")
	out=$(go test -list '^Fuzz' "$pkg")
	n=$(grep -E '^Fuzz' <<<"$out" | grep -cE -- "$name" || true)
	if [ "$n" != 1 ]; then
		echo "runpatterns: -fuzz=$name matches $n fuzz targets in $pkg, want exactly 1" >&2
		status=1
	fi
done < <(grep -E -- " test .*-fuzz=" Makefile)
exit $status
