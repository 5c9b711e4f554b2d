#!/usr/bin/env bash
# Builds cmd/serve and the benchmark from the sources of the checkout it
# is run in, then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload read --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare parent/ change/
#
# Everything it builds or writes stays under .perfbench/ in the
# checkout (Go build cache included), so two checkouts never share
# binaries.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a bioenrich checkout (cmd/serve and go.mod not found)" >&2
	exit 2
fi

work="$root/.perfbench"
mkdir -p "$work/bin" "$work/tmp"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$work/bin/serve" ./cmd/serve
(cd "$root/perfbench" && go build -o "$work/bin/perfbench" .)

if [[ "${1:-}" == "compare" ]]; then
	shift
	exec "$work/bin/perfbench" compare "$@"
fi
exec "$work/bin/perfbench" -root "$root" -serve "$work/bin/serve" "$@"
