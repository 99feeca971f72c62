#!/bin/sh
# End-to-end smoke test of the router path: generate a mini dataset,
# convert it, start two gdelt_serve shard backends and a gdelt_router in
# front, verify routed answers are byte-identical to a backend's own,
# kill -9 one shard and assert a structured degraded response, restart
# the shard on its original port and assert full recovery.
set -e
BIN_DIR="$1"
WORK="$(mktemp -d)"
S1_PID=""
S2_PID=""
ROUTER_PID=""
STEP="start"
# On failure, say which step was reached and show the logs before they go:
# under set -e a failed check would otherwise exit without a word.
cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "router smoke FAILED (exit $status) at step: $STEP" >&2
    for f in routed.out router.log s1.log s2.log s2b.log; do
      [ -f "$WORK/$f" ] || continue
      echo "--- $f" >&2
      cat "$WORK/$f" >&2
    done
  fi
  [ -n "$S1_PID" ] && kill -9 "$S1_PID" 2>/dev/null || true
  [ -n "$S2_PID" ] && kill -9 "$S2_PID" 2>/dev/null || true
  [ -n "$ROUTER_PID" ] && kill -9 "$ROUTER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# wait_ready <out-file> <pid>: echoes the READY port. A missing file
# means the backgrounded shell has not opened it yet: not ready.
wait_ready() {
  port=""
  for _ in $(seq 1 100); do
    port=""
    [ -f "$1" ] && port="$(sed -n 's/^READY port=\([0-9]*\)$/\1/p' "$1")"
    [ -n "$port" ] && break
    kill -0 "$2" 2>/dev/null || return 1
    sleep 0.1
  done
  [ -n "$port" ] || return 1
  echo "$port"
}

STEP="generate and convert"
"$BIN_DIR/gdelt_generate" --preset tiny --seed 7 --out "$WORK/raw" \
    > "$WORK/gen.log" 2>&1
"$BIN_DIR/gdelt_convert" --in "$WORK/raw" --out "$WORK/db" \
    > "$WORK/conv.log" 2>&1

STEP="start shards"
# Both shard backends serve the full converted database; the router
# assigns each one a partition of every scattered query.
"$BIN_DIR/gdelt_serve" --db "$WORK/db" --port 0 --workers 2 \
    > "$WORK/s1.out" 2> "$WORK/s1.log" &
S1_PID=$!
"$BIN_DIR/gdelt_serve" --db "$WORK/db" --port 0 --workers 2 \
    > "$WORK/s2.out" 2> "$WORK/s2.log" &
S2_PID=$!
P1="$(wait_ready "$WORK/s1.out" "$S1_PID")" \
    || { cat "$WORK/s1.log" >&2; exit 1; }
P2="$(wait_ready "$WORK/s2.out" "$S2_PID")" \
    || { cat "$WORK/s2.log" >&2; exit 1; }

STEP="start router"
"$BIN_DIR/gdelt_router" --shards "127.0.0.1:$P1;127.0.0.1:$P2" --port 0 \
    --connect-timeout-ms 500 --scatter-passes 1 --down-after 1 \
    --health-interval-ms 200 \
    > "$WORK/router.out" 2> "$WORK/router.log" &
ROUTER_PID=$!
RPORT="$(wait_ready "$WORK/router.out" "$ROUTER_PID")" \
    || { cat "$WORK/router.log" >&2; exit 1; }

STEP="routed batch of every kind"
# Every query kind (the registry, as gdelt_query --help lists it) through
# the router: all ok, none degraded.
KINDS=$("$BIN_DIR/gdelt_query" --help | sed -n '/^  --query /{n;s/|/ /g;p;}')
NKINDS=$(echo $KINDS | wc -w)
test "$NKINDS" -gt 0
for q in $KINDS; do
  printf '{"id":"%s","query":"%s","top":5}\n' "$q" "$q"
done | "$BIN_DIR/gdelt_client" --port "$RPORT" > "$WORK/routed.out"
test "$(wc -l < "$WORK/routed.out")" -eq "$NKINDS"
! grep -q '"ok":false' "$WORK/routed.out"
! grep -q 'partial_failure' "$WORK/routed.out"

STEP="router vs shard byte-identity"
# Byte-identity: a scattered kind's text equals the same query answered
# by one backend directly (wall_ms differs; compare the text member).
extract_text() {
  sed 's/.*"text":/"text":/' "$1"
}
printf '{"query":"coreport","top":5}\n' \
    | "$BIN_DIR/gdelt_client" --port "$RPORT" > "$WORK/via_router.out"
printf '{"query":"coreport","top":5}\n' \
    | "$BIN_DIR/gdelt_client" --port "$P1" > "$WORK/via_shard.out"
test "$(extract_text "$WORK/via_router.out")" = \
     "$(extract_text "$WORK/via_shard.out")"

STEP="ping and metrics"
# The router's own surface: ping and per-endpoint health.
printf '{"query":"ping"}\n{"query":"metrics"}\n' \
    | "$BIN_DIR/gdelt_client" --port "$RPORT" > "$WORK/meta.out"
grep -q '"pong":true' "$WORK/meta.out"
grep -q '"num_shards":2' "$WORK/meta.out"

STEP="degraded answer after shard kill"
# Shard death: kill -9 shard 2 and expect a degraded (ok:true +
# partial_failure naming shard 1) answer for a scattered kind.
kill -9 "$S2_PID"
wait "$S2_PID" 2>/dev/null || true
S2_PID=""
printf '{"id":"deg","query":"coreport","top":5}\n' \
    | "$BIN_DIR/gdelt_client" --port "$RPORT" > "$WORK/degraded.out"
grep -q '"ok":true' "$WORK/degraded.out"
grep -q '"partial_failure":\[1\]' "$WORK/degraded.out"

STEP="shard restart and recovery"
# Restart the shard on its original port; the health probe revives it
# and the same query comes back complete and byte-identical again. P2 was
# an ephemeral port, so another process's outgoing socket may hold it for
# a moment: retry only a restart that exits before READY with an
# address-in-use bind error, at most 20 times, 0.25 s apart.
tries=0
while :; do
  "$BIN_DIR/gdelt_serve" --db "$WORK/db" --port "$P2" --workers 2 \
      > "$WORK/s2b.out" 2> "$WORK/s2b.log" &
  S2_PID=$!
  wait_ready "$WORK/s2b.out" "$S2_PID" > /dev/null && break
  if kill -0 "$S2_PID" 2>/dev/null \
     || ! grep -q "Address already in use" "$WORK/s2b.log"; then
    cat "$WORK/s2b.log" >&2
    exit 1
  fi
  wait "$S2_PID" 2>/dev/null || true
  S2_PID=""
  tries=$((tries + 1))
  [ "$tries" -lt 20 ] || { cat "$WORK/s2b.log" >&2; exit 1; }
  sleep 0.25
done
recovered=0
for _ in $(seq 1 50); do
  printf '{"id":"rec","query":"coreport","top":5}\n' \
      | "$BIN_DIR/gdelt_client" --port "$RPORT" > "$WORK/recovered.out"
  if grep -q '"ok":true' "$WORK/recovered.out" \
     && ! grep -q 'partial_failure' "$WORK/recovered.out"; then
    recovered=1
    break
  fi
  sleep 0.2
done
test "$recovered" -eq 1 || { cat "$WORK/recovered.out" >&2; exit 1; }
test "$(extract_text "$WORK/recovered.out")" = \
     "$(extract_text "$WORK/via_shard.out")"

STEP="router drain on SIGTERM"
# Graceful SIGTERM: the router drains and exits zero.
kill -TERM "$ROUTER_PID"
i=0
while kill -0 "$ROUTER_PID" 2>/dev/null; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && { echo "router ignored SIGTERM" >&2; exit 1; }
  sleep 0.1
done
wait "$ROUTER_PID"
ROUTER_PID=""
grep -q "drained" "$WORK/router.log"
echo "router smoke OK"
