#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# into <checkout>/.bench_build and runs it from this directory, so that
# the go tool and the benchmark read and write only inside the checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# It exits non-zero, without a result, when the repository's module is not
# there to build against.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

# Keep the go tool's cache, module path, configuration and telemetry in
# the checkout, and stop it from fetching another toolchain.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

cd "$here"
go build -o "$build/bench" .
exec "$build/bench" "$@"
