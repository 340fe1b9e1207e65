#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Every file the build writes (Go build cache included) stays inside
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local \
	go build -C benchmark -o "$root/.bench_build/gonamd-bench" .
exec "$root/.bench_build/gonamd-bench" "$@"
