#!/usr/bin/env bash
# Builds cmd/seuss-node and the perfbench program from the checkout in the
# current directory, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload hot-http --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Run it from the repository root. Every file it writes (Go build cache,
# binaries, temp snapshot directories, server logs, span dumps) lands
# under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/seuss-node" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/seuss-node and perfbench/ must be present)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gomod"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

# Build into temporary names and rename, so an interrupted build never
# leaves a half-written binary behind.
go build -o "$out/seuss-node.new.$$" ./cmd/seuss-node
mv -f "$out/seuss-node.new.$$" "$out/seuss-node"
(cd perfbench && go build -o "$out/perfbench.new.$$" .)
mv -f "$out/perfbench.new.$$" "$out/perfbench"

exec "$out/perfbench" -node "$out/seuss-node" -workdir "$out" "$@"
