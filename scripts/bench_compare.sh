#!/usr/bin/env bash
# Judge this checkout's performance against a parent revision with the
# repository benchmark (bench/, sfbench), as CI does on every push.
#
# Each side builds sfbench with its own bench/run.sh: the parent in a
# temporary git worktree of PARENT_REV, the change in this checkout. The
# script then runs PAIRS alternated pairs of timed runs of each workload
# (the parent first in odd pairs, the change first in even ones, so a
# host whose speed drifts during the pairs slows both sides alike) and
# judges them with `sfbench compare`, which applies the BENCHMARK.json
# bounds to the pairs. The compare table goes to stdout, progress to
# stderr.
#
# Exits 1 when compare reports a regression, or when any run of the
# change fails an output check (a seed-1 digest). An unresolved metric,
# whose spread is wider than its bound, is printed but does not fail.
# When the change edits bench/ or BENCHMARK.json, the parent's benchmark
# cannot measure it, so both sides run the change's own build.
#
# Usage: scripts/bench_compare.sh PARENT_REV
set -euo pipefail
shopt -s inherit_errexit

PAIRS=5
RUN_SECONDS=10
WORKLOADS=(fig15 whatif)

if [ $# -ne 1 ]; then
  echo "usage: $0 PARENT_REV" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d)
worktree=""
cleanup() {
  if [ -n "$worktree" ]; then
    git -C "$root" worktree remove --force "$worktree" || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

if git -C "$root" diff --quiet "$rev" -- bench BENCHMARK.json; then
  worktree=$tmp/parent
  git -C "$root" worktree add --quiet --detach "$worktree" "$rev"
  parent_dir=$worktree
else
  echo "bench_compare: the change edits bench/ or BENCHMARK.json; both sides run its own build" >&2
  parent_dir=$root
fi

# run SIDE DIR PAIR WORKLOAD: one timed run; prints the run's failed count.
run() {
  local side=$1 dir=$2 pair=$3 w=$4
  local log=$tmp/$side.$pair.$w.log
  (cd "$dir" && bash bench/run.sh --workload "$w" --seed 1 --seconds "$RUN_SECONDS" --trace 0 \
    -out "$tmp/$side.$pair.$w.json") >"$log"
  tail -n 1 "$log" | grep -o '"failed":[0-9]*' | cut -d: -f2
}

failed=0
for pair in $(seq "$PAIRS"); do
  for w in "${WORKLOADS[@]}"; do
    if [ $((pair % 2)) -eq 1 ]; then
      run parent "$parent_dir" "$pair" "$w" >/dev/null
      f=$(run change "$root" "$pair" "$w")
    else
      f=$(run change "$root" "$pair" "$w")
      run parent "$parent_dir" "$pair" "$w" >/dev/null
    fi
    echo "bench_compare: pair $pair/$PAIRS $w done; the change failed $f output checks" >&2
    failed=$((failed + f))
  done
done

# files SIDE: the side's result files, comma-joined in the same order on
# both sides, so compare pairs them by position.
files() {
  local list=() w pair
  for w in "${WORKLOADS[@]}"; do
    for pair in $(seq "$PAIRS"); do
      list+=("$tmp/$1.$pair.$w.json")
    done
  done
  (IFS=,; echo "${list[*]}")
}

status=0
(cd "$root" && bash bench/run.sh compare "$(files parent)" "$(files change)") | tee "$tmp/table.txt" || status=1
if grep -q ' regression ' "$tmp/table.txt"; then
  status=1
fi
if [ "$failed" -gt 0 ]; then
  echo "bench_compare: the change failed $failed output checks" >&2
  status=1
fi
echo "bench_compare: $PAIRS pairs of ${WORKLOADS[*]} against $rev in ${SECONDS}s, exit $status" >&2
exit "$status"
