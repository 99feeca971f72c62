#!/bin/sh
# End-to-end smoke test of the serving path: generate a mini dataset,
# convert it, start gdelt_serve, run a client batch over every query
# kind, check the responses, and shut the daemon down with SIGTERM.
set -e
BIN_DIR="$1"
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

"$BIN_DIR/gdelt_generate" --preset tiny --seed 7 --out "$WORK/raw" \
    > "$WORK/gen.log" 2>&1
"$BIN_DIR/gdelt_convert" --in "$WORK/raw" --out "$WORK/db" \
    > "$WORK/conv.log" 2>&1

"$BIN_DIR/gdelt_serve" --db "$WORK/db" --port 0 --workers 2 \
    > "$WORK/serve.out" 2> "$WORK/serve.log" &
SERVE_PID=$!

# The daemon prints "READY port=<n>" once it is listening. A missing
# serve.out means the backgrounded shell has not opened it yet.
PORT=""
for _ in $(seq 1 100); do
  [ -f "$WORK/serve.out" ] \
      && PORT="$(sed -n 's/^READY port=\([0-9]*\)$/\1/p' "$WORK/serve.out")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve.log" >&2; exit 1; }
  sleep 0.1
done
[ -n "$PORT" ] || { echo "server never became ready" >&2; exit 1; }

# A batch over every query kind (the registry, as gdelt_query --help
# lists it), one twice to exercise the cache, plus metrics. Exit code 0
# requires every response to be ok:true.
KINDS=$("$BIN_DIR/gdelt_query" --help | sed -n '/^  --query /{n;s/|/ /g;p;}')
NKINDS=$(echo $KINDS | wc -w)
test "$NKINDS" -gt 0
{
  for q in $KINDS; do
    printf '{"id":"%s","query":"%s","top":5}\n' "$q" "$q"
  done
  printf '{"id":"again","query":"stats","top":5}\n'
  printf '{"id":"m","query":"metrics"}\n'
} | "$BIN_DIR/gdelt_client" --port "$PORT" > "$WORK/batch.out"

# One non-empty response line per kind plus the repeat and metrics, all
# ok, the repeat served from cache.
test "$(wc -l < "$WORK/batch.out")" -eq $((NKINDS + 2))
! grep -q '"ok":false' "$WORK/batch.out"
grep -q '"id":"again","ok":true.*"cached":true' "$WORK/batch.out"
grep -q '"cache_hits":' "$WORK/batch.out"

# Structured errors for garbage and unknown queries.
printf 'not json\n{"query":"bogus"}\n' \
    | "$BIN_DIR/gdelt_client" --port "$PORT" > "$WORK/err.out" || true
grep -q '"code":"bad_request"' "$WORK/err.out"
grep -q '"code":"unknown_query"' "$WORK/err.out"

# Graceful SIGTERM: the daemon drains and exits zero.
kill -TERM "$SERVE_PID"
i=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && { echo "server ignored SIGTERM" >&2; exit 1; }
  sleep 0.1
done
wait "$SERVE_PID"
SERVE_PID=""
grep -q "drained" "$WORK/serve.log"
echo "serve smoke OK"
