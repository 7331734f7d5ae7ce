#!/usr/bin/env bash
# deadcode.sh fails when a function declared in the module's non-test
# code is linked by no binary and not named in scripts/deadcode.allow.
#
# It builds every binary the repository ships (cmd/*, examples/* and
# the syncbench module) with inlining off, so every call keeps its
# symbol, lists their symbols with `go tool nm`, and hands the listings
# to scripts/deadcode, which compares them with the functions declared
# in the source.
#
#	bash scripts/deadcode.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

go build -gcflags=all=-l -o "$OUT/bin/" ./cmd/... ./examples/...
(cd syncbench && go build -gcflags=all=-l -o "$OUT/bin/syncbench" .)
for b in "$OUT"/bin/*; do
  go tool nm "$b" > "$OUT/$(basename "$b").nm"
done
go run ./scripts/deadcode -root . -allow scripts/deadcode.allow "$OUT"/*.nm
