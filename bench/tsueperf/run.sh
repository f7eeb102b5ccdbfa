#!/usr/bin/env bash
# Builds tsueperf from source and runs it with the arguments given. Everything
# the build writes (binary, Go build cache, temporary and telemetry files)
# stays under .bench_build in the checkout; the program itself runs from the
# checkout's root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$here"
	export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
	export GOENV=off GOTOOLCHAIN=local GOFLAGS=
	go build -o "$build/tsueperf" .
) >&2
cd "$root"
exec "$build/tsueperf" "$@"
