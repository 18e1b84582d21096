#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds pdperf from source into the
# checkout's .bench_build directory (go's build and module caches and its
# telemetry counters go there too, so nothing is written outside the
# checkout) and then replaces this shell with the binary: one process, and
# nothing left running when it returns.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
  cd "$here"
  GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOFLAGS=-modcacherw \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
    go build -o "$build/pdperf" .
)
cd "$root"
exec "$build/pdperf" "$@"
