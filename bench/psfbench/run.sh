#!/usr/bin/env bash
# Build psfbench in its own Release tree (a no-op once built), then run it:
#
#   bench/psfbench/run.sh --workload sso_read --seed 1 --seconds 12 --trace 0
#
# Every argument goes to the psfbench binary (see README.md). Build output
# goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-psfbench"

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "psfbench: no source tree at $root/src" >&2
  exit 2
fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" --target psfbench >&2
exec "$build/psfbench" "$@"
