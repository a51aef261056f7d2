#!/usr/bin/env bash
# Builds stagger_e2e (bench/e2e is a CMake project of its own, compiling
# ../../src in Release) into build-e2e/ at the repository root, then
# hands every argument to run.py.  Build output goes to stderr, so the
# last line on stdout is run.py's result.
#
#   bash bench/e2e/run.sh --workload open_chaos --seed 7 --seconds 12 --trace 0
#   bash bench/e2e/run.sh --out results.json     # every workload
#   bash bench/e2e/run.sh --smoke                # quick pass, under 15 s
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" >&2

exec python3 "$here/run.py" --binary "$build/stagger_e2e" "$@"
