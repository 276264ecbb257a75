#!/usr/bin/env bash
# Gate the phase profiler's overhead on a real workload.
#
# Regenerates fig15 (the anchor figure: 25 budget cells forked from five
# warmed donors) with phase profiling off and on, alternating the two
# modes so clock drift on a shared runner hits both equally, and takes
# the minimum wall time of each mode across ITERS pairs. The ratio must stay within the
# budget enforced by `benchgate -overhead` (default 1.03 = 3%).
#
# The profiler's true cost is far below the gate: scope pairs run only
# at control rate (per run, per tick), and the per-invocation exec path
# is a single atomic counter increment (~6ns, see prof.Count). The 3%
# headroom absorbs timer and scheduler noise, not profiler work.
#
# Usage: scripts/profiler_overhead.sh [outdir]
#   ITERS=5       pairs to run (min is taken per mode)
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

min() { # min <a> <b>; prints the smaller (empty a yields b)
  if [ -z "$1" ] || awk -v d="$2" -v b="$1" 'BEGIN{exit !(d<b)}'; then
    printf '%s' "$2"
  else
    printf '%s' "$1"
  fi
}

base="" profiled=""
for i in $(seq "$ITERS"); do
  base=$(min "$base" "$(run_once)")
  profiled=$(min "$profiled" "$(run_once -profile "$OUT/phase_profile.json")")
  echo "pair $i/$ITERS: base=${base}s profiled=${profiled}s"
done

go run ./cmd/benchgate -file "" -overhead "$base:$profiled:$MAX_RATIO"
