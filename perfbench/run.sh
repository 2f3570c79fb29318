#!/usr/bin/env bash
# Builds the pipecache end-to-end benchmark from source and runs it with the
# given arguments; see perfbench/README.md. Every build and run artifact goes
# under .bench_build/ at the repository root.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

# The build cache, the compiler's scratch files and Go's telemetry counters
# (kept under the user config directory) stay under .bench_build; the build
# never fetches a module and ignores any workspace or user build flags.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
