#!/usr/bin/env bash
# Gate the phase profiler's overhead on a real workload.
#
# Regenerates fig15 (the anchor figure: 25 budget cells forked from five
# warmed donors) with phase profiling off and on, ITERS times each, in
# pairs whose order alternates (odd pairs run the base first, even pairs
# the profiled mode), and passes each mode's median wall time to
# `benchgate -overhead`, which holds the ratio within the budget (default
# 1.03 = 3%). Alternating the order and taking medians keeps a host whose
# speed drifts during the pairs from deciding the gate: with the base
# always first and each mode's minimum, the gate read 20.4%, 3.6% and
# 5.1% at one commit on a shared 2-vCPU VM, where interleaved pairs put
# the profiled median within 2% of the base.
#
# The profiler's true cost is far below the gate: scope pairs run only
# at control rate (per run, per tick), and the per-invocation exec path
# is a single atomic counter increment (~6ns, see prof.Count). The 3%
# headroom absorbs timer and scheduler noise, not profiler work.
#
# Usage: scripts/profiler_overhead.sh [outdir]
#   ITERS=5       pairs to run (the median is taken per mode)
#   MAX_RATIO=1.03  overhead budget passed to benchgate
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-/tmp/profiler_overhead}"
ITERS="${ITERS:-5}"
MAX_RATIO="${MAX_RATIO:-1.03}"
mkdir -p "$OUT"

go build -o "$OUT/experiments" ./cmd/experiments

run_once() { # run_once <extra flags...>; prints wall seconds
  local s e
  s=$(date +%s.%N)
  "$OUT/experiments" -run fig15 -seed 1 -parallel 1 "$@" >/dev/null 2>&1
  e=$(date +%s.%N)
  awk -v a="$s" -v b="$e" 'BEGIN{printf "%.3f", b-a}'
}

median() { # median <secs...>; prints the middle value (mean of the two middle ones for an even count)
  printf '%s\n' "$@" | sort -g | awk '{v[NR]=$1} END{printf "%.3f", NR%2 ? v[(NR+1)/2] : (v[NR/2]+v[NR/2+1])/2}'
}

base=() profiled=()
for i in $(seq "$ITERS"); do
  if [ $((i % 2)) -eq 1 ]; then
    b=$(run_once)
    p=$(run_once -profile "$OUT/phase_profile.json")
  else
    p=$(run_once -profile "$OUT/phase_profile.json")
    b=$(run_once)
  fi
  base+=("$b") profiled+=("$p")
  echo "pair $i/$ITERS: base=${b}s profiled=${p}s"
done

go run ./cmd/benchgate -overhead "$(median "${base[@]}"):$(median "${profiled[@]}"):$MAX_RATIO"
