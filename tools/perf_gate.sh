#!/usr/bin/env bash
# Perf gate: times bench_micro at BASE_REF and in the working tree on
# this machine, and fails when a benchmark of the base runs more than
# 25% slower in the change (tools/check_bench_regression.py).
#
#   tools/perf_gate.sh BASE_REF
#
# Both sides build in Release with -falign-functions=64 -falign-loops=32,
# each into a temporary build directory: BASE_REF from a temporary git
# worktree, the change from the working tree.  Default Release builds
# move rows by 3-20% with where the linker happens to place functions
# (and with member offsets, which change instruction lengths); the
# alignment puts every function and loop on a fixed boundary, so both
# sides time their work rather than their layout.  The runs then
# alternate, one per side per round, and the order flips every round so
# that drift in the host's load falls on both sides alike.  Each run is pinned to one
# CPU when taskset is available.  The reports land in build/perf-gate/:
# base-N.json and change-N.json (google-benchmark's JSON, one per run,
# with its console output in the matching .log) and the combined
# verdict BENCH_scheduler.json.
set -euo pipefail

# Rounds of one run per side, one repetition per run: every side gets
# ROUNDS repetitions per benchmark, and the checker keeps the minimum.
# On a shared 4-vCPU VM one side's runs of unchanged code spread by up
# to 25%, so five rounds let one lucky run decide; ten make the minimum
# settle.
readonly ROUNDS=10

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BASE_REF" >&2
  exit 2
fi
base_sha=$(git rev-parse --verify "$1^{commit}")
repo=$(git rev-parse --show-toplevel)
out="$repo/build/perf-gate"
tmp=$(mktemp -d)
cleanup() {
  git -C "$repo" worktree remove --force "$tmp/base" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

readonly ALIGN_FLAGS="-falign-functions=64 -falign-loops=32"
build() {  # build SOURCE_DIR BUILD_DIR
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="$ALIGN_FLAGS" > /dev/null
  cmake --build "$2" --target bench_micro -j "$(nproc)" > /dev/null
}

git -C "$repo" worktree add --detach "$tmp/base" "$base_sha" > /dev/null
echo "building bench_micro at ${base_sha:0:12} and in the working tree"
build "$tmp/base" "$tmp/base-build"
build "$repo" "$tmp/change-build"

# Pin to the highest CPU this shell may use, as bench/e2e/run.py does.
pin=()
if command -v taskset > /dev/null; then
  cpu=$(taskset -cp $$ | sed 's/.*: //; s/.*[-,]//')
  pin=(taskset -c "$cpu")
fi

rm -rf "$out"
mkdir -p "$out" "$tmp/run"
run() {  # run SIDE BINARY ROUND
  echo "round $3: $1"
  # Run in a scratch directory: a base that predates this gate also
  # writes a report of its own into the working directory.
  (cd "$tmp/run" && "${pin[@]}" "$2" --benchmark_repetitions=1 \
    --benchmark_out="$out/$1-$3.json" --benchmark_out_format=json \
    > "$out/$1-$3.log" 2>&1)
}
for round in $(seq 1 "$ROUNDS"); do
  if (( round % 2 )); then
    run base "$tmp/base-build/bench/bench_micro" "$round"
    run change "$tmp/change-build/bench/bench_micro" "$round"
  else
    run change "$tmp/change-build/bench/bench_micro" "$round"
    run base "$tmp/base-build/bench/bench_micro" "$round"
  fi
done

cd "$out"
"$repo/tools/check_bench_regression.py" \
  --base base-*.json --change change-*.json
