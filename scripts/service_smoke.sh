#!/usr/bin/env bash
# Smoke-test the cmd/fridge control plane end to end.
#
# Boots `fridge -serve -listen 127.0.0.1:0`, POSTs the committed scenario
# spec THREE times (independent sessions s1, s2 and s4), polls each to
# completion, asks s1 and s2 the same two what-if questions in opposite
# orders (s1 forks early then late, s2 late then early), leaves s4
# undetoured, and verifies:
#
#   1. the sessions' /result bodies are byte-identical to each other and
#      to testdata/service_smoke/result.golden.json;
#   2. for each fork point, the two /whatif bodies are byte-identical to
#      each other and to testdata/service_smoke/whatif.golden.json (early,
#      at_s 1.5) or whatif_late.golden.json (late, at_s 2.5), whatever
#      order the bookmarks were made in;
#   3. the post-detour /result still matches the golden (the what-if
#      fork left no trace in the session);
#   4. the detoured sessions' /ledger bodies (hash-chained run ledgers)
#      are byte-identical to each other and to the undetoured s4's, and
#      repeated /explain fetches return identical bytes;
#   5. the CLI leg: `fridge -scenario X -ledger` writes the same ledger as
#      a session of X, for scenario.json (against s4) and for
#      scenario_trace.json (against s3, fetched after its profile-swap
#      what-if, so the detour is invisible to the trace session's ledger
#      too).
#
# Every request/response pair is appended to $OUT/transcript.jsonl (one
# JSON object per line) so CI can upload the full exchange as an
# artifact.
#
# Usage: scripts/service_smoke.sh [-update] [outdir]
#   -update  rewrite the goldens from this run instead of diffing
set -euo pipefail
cd "$(dirname "$0")/.."

UPDATE=0
if [ "${1:-}" = "-update" ]; then
  UPDATE=1
  shift
fi
OUT=${1:-/tmp/service_smoke}
GOLDEN=testdata/service_smoke
mkdir -p "$OUT"
TRANSCRIPT="$OUT/transcript.jsonl"
: > "$TRANSCRIPT"

go build -o "$OUT/fridge" ./cmd/fridge

"$OUT/fridge" -serve -listen 127.0.0.1:0 2> "$OUT/server.log" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# The server prints its resolved address on stderr once the socket is
# bound; :0 lets the kernel pick a free port.
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's#^control plane: POST scenarios to http://\([^/]*\)/sessions$#\1#p' "$OUT/server.log")
  [ -n "$ADDR" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$OUT/server.log" >&2; exit 1; }
  sleep 0.1
done
if [ -z "$ADDR" ]; then
  echo "service_smoke: server never reported its address" >&2
  cat "$OUT/server.log" >&2
  exit 1
fi
BASE="http://$ADDR"

# req METHOD PATH [BODYFILE] -> body on stdout, transcript line appended.
# Responses are single-line JSON, so they embed directly as JSON values.
req() {
  local method=$1 path=$2 bodyfile=${3:-}
  local resp status
  if [ -n "$bodyfile" ]; then
    resp=$(curl -sS -X "$method" --data-binary @"$bodyfile" \
      -w $'\n%{http_code}' "$BASE$path")
  else
    resp=$(curl -sS -X "$method" -w $'\n%{http_code}' "$BASE$path")
  fi
  status=${resp##*$'\n'}
  resp=${resp%$'\n'*}
  printf '{"method":"%s","path":"%s","status":%s,"body":%s}\n' \
    "$method" "$path" "$status" "${resp:-null}" >> "$TRANSCRIPT"
  if [ "${status:0:1}" != "2" ]; then
    echo "service_smoke: $method $path -> $status: $resp" >&2
    return 1
  fi
  printf '%s\n' "$resp"
}

# await_done ID polls /status until the session reaches a terminal state.
await_done() {
  local id=$1 body
  for _ in $(seq 1 300); do
    body=$(req GET "/sessions/$id/status")
    case "$body" in
      *'"state":"done"'*) return 0 ;;
      *'"state":"failed"'*) echo "service_smoke: session $id failed: $body" >&2; return 1 ;;
    esac
    sleep 0.1
  done
  echo "service_smoke: session $id never finished" >&2
  return 1
}

# Two independent sessions of the same scenario, one trace-driven
# session, and a third copy of the scenario that never forks: the
# control plane assigns ids deterministically (s1, s2, s3, s4).
req POST /sessions "$GOLDEN/scenario.json" > /dev/null
req POST /sessions "$GOLDEN/scenario.json" > /dev/null
req POST /sessions "$GOLDEN/scenario_trace.json" > /dev/null
req POST /sessions "$GOLDEN/scenario.json" > /dev/null
await_done s1
await_done s2
await_done s3
await_done s4

req GET /sessions/s1/result > "$OUT/result_s1.json"
req GET /sessions/s2/result > "$OUT/result_s2.json"
req GET /sessions/s4/result > "$OUT/result_s4.json"
# s1 forks early then late, s2 late then early: each session caches a
# bookmark per fork point, so the second question of each restores a
# bookmark made in the opposite order on the other session.
req POST /sessions/s1/whatif "$GOLDEN/whatif.json" > "$OUT/whatif_s1.json"
req POST /sessions/s1/whatif "$GOLDEN/whatif_late.json" > "$OUT/whatif_late_s1.json"
req POST /sessions/s2/whatif "$GOLDEN/whatif_late.json" > "$OUT/whatif_late_s2.json"
req POST /sessions/s2/whatif "$GOLDEN/whatif.json" > "$OUT/whatif_s2.json"
# The what-if fork must leave the session's result untouched.
req GET /sessions/s1/result > "$OUT/result_s1_after.json"

# The run ledger: identical sessions publish byte-identical hash-chained
# ledgers, even after the what-if detours above (every detour ends by
# restoring the session's paused state and never re-seals its chain), and
# the detoured ledgers equal the undetoured s4's. Ledger bodies are
# multi-line JSONL, so they bypass the single-line transcript helper.
curl -sS "$BASE/sessions/s1/ledger" > "$OUT/ledger_s1.jsonl"
curl -sS "$BASE/sessions/s2/ledger" > "$OUT/ledger_s2.jsonl"
curl -sS "$BASE/sessions/s4/ledger" > "$OUT/ledger_s4.jsonl"
req GET "/sessions/s1/explain?t=0" > "$OUT/explain_s1.json"
req GET "/sessions/s1/explain?t=0" > "$OUT/explain_s1_again.json"

# The trace-driven session: replay an inline t,region,rate trace, then a
# what-if that swaps the traffic profile to flash-crowd mid-run.
req GET /sessions/s3/result > "$OUT/result_s3.json"
req POST /sessions/s3/whatif "$GOLDEN/whatif_swap.json" > "$OUT/whatif_s3.json"
req GET /sessions/s3/result > "$OUT/result_s3_after.json"
curl -sS "$BASE/sessions/s3/ledger" > "$OUT/ledger_s3.jsonl"

echo "service_smoke: four sessions completed on $BASE"

# The CLI leg: the same scenarios run locally through the same mapping.
"$OUT/fridge" -scenario "$GOLDEN/scenario.json" -ledger "$OUT/ledger_cli.jsonl" > /dev/null
"$OUT/fridge" -scenario "$GOLDEN/scenario_trace.json" -ledger "$OUT/ledger_trace_cli.jsonl" > /dev/null

if [ "$UPDATE" = 1 ]; then
  cp "$OUT/result_s1.json" "$GOLDEN/result.golden.json"
  cp "$OUT/whatif_s1.json" "$GOLDEN/whatif.golden.json"
  cp "$OUT/whatif_late_s1.json" "$GOLDEN/whatif_late.golden.json"
  cp "$OUT/result_s3.json" "$GOLDEN/result_trace.golden.json"
  cp "$OUT/whatif_s3.json" "$GOLDEN/whatif_swap.golden.json"
  echo "service_smoke: goldens rewritten in $GOLDEN"
  exit 0
fi

diff "$OUT/result_s1.json" "$OUT/result_s2.json" \
  || { echo "service_smoke: /result differs between identical sessions" >&2; exit 1; }
diff "$OUT/result_s1.json" "$OUT/result_s4.json" \
  || { echo "service_smoke: /result differs between identical sessions" >&2; exit 1; }
diff "$OUT/whatif_s1.json" "$OUT/whatif_s2.json" \
  || { echo "service_smoke: early /whatif differs between identical sessions" >&2; exit 1; }
diff "$OUT/whatif_late_s1.json" "$OUT/whatif_late_s2.json" \
  || { echo "service_smoke: late /whatif differs between identical sessions" >&2; exit 1; }
diff "$OUT/result_s1.json" "$OUT/result_s1_after.json" \
  || { echo "service_smoke: what-if detour changed the session result" >&2; exit 1; }
[ -s "$OUT/ledger_s1.jsonl" ] \
  || { echo "service_smoke: /ledger returned an empty body" >&2; exit 1; }
diff "$OUT/ledger_s1.jsonl" "$OUT/ledger_s2.jsonl" \
  || { echo "service_smoke: /ledger differs between identical sessions" >&2; exit 1; }
diff "$OUT/ledger_s4.jsonl" "$OUT/ledger_s1.jsonl" \
  || { echo "service_smoke: what-if detours changed the session /ledger" >&2; exit 1; }
diff "$OUT/ledger_s4.jsonl" "$OUT/ledger_cli.jsonl" \
  || { echo "service_smoke: fridge -ledger differs from the session /ledger" >&2; exit 1; }
[ -s "$OUT/ledger_s3.jsonl" ] \
  || { echo "service_smoke: trace /ledger returned an empty body" >&2; exit 1; }
diff "$OUT/ledger_s3.jsonl" "$OUT/ledger_trace_cli.jsonl" \
  || { echo "service_smoke: fridge -ledger differs from the detoured trace session /ledger" >&2; exit 1; }
diff "$OUT/explain_s1.json" "$OUT/explain_s1_again.json" \
  || { echo "service_smoke: repeated /explain fetches disagree" >&2; exit 1; }
diff "$GOLDEN/result.golden.json" "$OUT/result_s1.json" \
  || { echo "service_smoke: /result drifted from the committed golden (run scripts/service_smoke.sh -update)" >&2; exit 1; }
diff "$GOLDEN/whatif.golden.json" "$OUT/whatif_s1.json" \
  || { echo "service_smoke: /whatif drifted from the committed golden (run scripts/service_smoke.sh -update)" >&2; exit 1; }
diff "$GOLDEN/whatif_late.golden.json" "$OUT/whatif_late_s1.json" \
  || { echo "service_smoke: late /whatif drifted from the committed golden (run scripts/service_smoke.sh -update)" >&2; exit 1; }
diff "$OUT/result_s3.json" "$OUT/result_s3_after.json" \
  || { echo "service_smoke: profile-swap what-if changed the trace session result" >&2; exit 1; }
diff "$GOLDEN/result_trace.golden.json" "$OUT/result_s3.json" \
  || { echo "service_smoke: trace /result drifted from the committed golden (run scripts/service_smoke.sh -update)" >&2; exit 1; }
diff "$GOLDEN/whatif_swap.golden.json" "$OUT/whatif_s3.json" \
  || { echo "service_smoke: profile-swap /whatif drifted from the committed golden (run scripts/service_smoke.sh -update)" >&2; exit 1; }

echo "service_smoke: results byte-identical across sessions, the CLI and goldens"
