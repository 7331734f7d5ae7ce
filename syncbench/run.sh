#!/usr/bin/env bash
# Builds syncd and the benchmark from the checkout's sources, then runs
# one benchmark pass. Run from the root of a checkout:
#
#   bash syncbench/run.sh --workload plan-cold --seed 1 --seconds 12 --trace 0
#
# Every build artifact and Go cache lives under .bench_build/ in the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/syncd ]]; then
	echo "syncbench: $root holds no syncd sources (go.mod, cmd/syncd)" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go build -o "$out/bin/syncd" ./cmd/syncd
(cd syncbench && go build -o "$out/bin/syncbench" .)
exec "$out/bin/syncbench" -syncd "$out/bin/syncd" "$@"
