#!/usr/bin/env bash
# Builds flexbench from source and runs it with the given arguments.
# Run from the flexrpc repository root:
#
#   bash flexbench/run.sh --workload null-netpoll --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build in the repository root.
set -euo pipefail

# A Go toolchain outside PATH is looked for where Go installs by default.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/flexbench" ]; then
	echo "flexbench: run from the flexrpc repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOFLAGS= GOWORK=off \
	GOPROXY=off GOTOOLCHAIN=local
(cd "$root/flexbench" && go build -o "$out/flexbench" .)
exec "$out/flexbench" --repo "$root" "$@"
