#!/usr/bin/env bash
# Builds the HeapMD benchmark from source and runs it with the given
# arguments, from the repository root. Every file the build and the run
# write (Go build cache, binary, results, spans) stays under
# .bench_build/ at the root.
#
#   bash bench/run.sh                        # every workload, both modes
#   bash bench/run.sh --workload store-churn --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -compare A.json B.json
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/bench" && go build -o "$build/heapmd-bench" .) >&2

cd "$root"
exec "$build/heapmd-bench" "$@"
