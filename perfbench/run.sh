#!/usr/bin/env bash
# Builds the benchmark and the expd service from the checkout in the current
# directory (the repository root), then runs the benchmark with the given
# arguments. Every file the build and the run write stays under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d cmd/expd ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/expd and perfbench/ are missing here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .) >&2
go build -o "$out/expd" ./cmd/expd >&2
exec "$out/perfbench" "$@"
