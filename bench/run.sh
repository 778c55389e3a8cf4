#!/usr/bin/env bash
# Driver entry point: build the benchmark inside the checkout and run it.
#
#   bash bench/run.sh [bench flags] --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes stays in the checkout: the binary and the Go build
# cache under .bench_build/, stores, results and traces under bench/out/.
# In a directory without the repository's sources the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/qd-bench" .) >&2
exec "$build/qd-bench" -out "$here/out" "$@"
