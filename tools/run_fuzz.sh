#!/usr/bin/env sh
# Builds the fuzz harnesses (-DHETSCHED_FUZZ=ON: ASan+UBSan tree-wide,
# libFuzzer when the compiler has it, the standalone driver otherwise)
# and runs each one over its committed seed corpus.  CI and developers
# invoke this identically:
#
#   tools/run_fuzz.sh [build-dir]         # build-dir defaults to ./build-fuzz
#
# Environment knobs (both drivers accept the same flags):
#   FUZZ_RUNS            mutated execs per target (default 10000; -1 = until
#                        FUZZ_MAX_TOTAL_TIME expires)
#   FUZZ_MAX_TOTAL_TIME  wall-clock budget per target in seconds (default 0 =
#                        no budget; CI uses 60)
#   FUZZ_SEED            PRNG seed (default 1, the ctest smoke seed)
#
# A crashing input is saved as ./crash-<id>; reproduce with
#   <build-dir>/fuzz/<target> crash-<id>
# and minimize by trimming bytes until the crash disappears (libFuzzer
# builds can use -minimize_crash=1 instead).
set -eu
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-fuzz}"
RUNS="${FUZZ_RUNS:-10000}"
BUDGET="${FUZZ_MAX_TOTAL_TIME:-0}"
SEED="${FUZZ_SEED:-1}"

cmake -S . -B "$BUILD_DIR" -DHETSCHED_FUZZ=ON >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target fuzz_frame_decode fuzz_wal_load fuzz_snapshot fuzz_trace_parse \
  fuzz_instance_parse

for pair in fuzz_frame_decode:frame fuzz_wal_load:wal \
            fuzz_snapshot:snapshot fuzz_trace_parse:trace \
            fuzz_instance_parse:instance; do
  target="${pair%%:*}"
  corpus="fuzz/corpus/${pair##*:}"
  scratch="$BUILD_DIR/fuzz/scratch/$target"
  mkdir -p "$scratch"
  echo "== $target (runs=$RUNS max_total_time=${BUDGET}s seed=$SEED) =="
  "$BUILD_DIR/fuzz/$target" "-runs=$RUNS" "-seed=$SEED" -max_len=4096 \
    "-max_total_time=$BUDGET" "$scratch" "$corpus"
done
echo "run_fuzz: all targets completed"
