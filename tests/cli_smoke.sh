#!/bin/sh
# End-to-end smoke test of the three CLI tools:
# generate -> convert -> a battery of queries, checking exit codes and
# that key markers appear in the output.
set -e
BIN_DIR="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$BIN_DIR/gdelt_generate" --preset tiny --seed 5 --out "$WORK/raw" > "$WORK/gen.log" 2>&1
grep -q "wrote" "$WORK/gen.log"

"$BIN_DIR/gdelt_convert" --in "$WORK/raw" --out "$WORK/db" > "$WORK/conv.log" 2>&1
grep -q "missing archives" "$WORK/conv.log"
test -f "$WORK/db/events.tbl"
test -f "$WORK/db/mentions.tbl"
test -f "$WORK/db/sources.dict"
test -f "$WORK/db/convert_report.txt"

# Every query the CLI lists in its --query help line.
KINDS=$("$BIN_DIR/gdelt_query" --help | sed -n '/^  --query /{n;s/|/ /g;p;}')
test -n "$KINDS"
for q in $KINDS; do
  "$BIN_DIR/gdelt_query" --db "$WORK/db" --query "$q" --top 5 \
      > "$WORK/q_$q.log" 2>&1
done
grep -q "General dataset statistics" "$WORK/q_stats.log"
grep -q "Follow-reporting" "$WORK/q_follow.log"
grep -q "quad class" "$WORK/q_tone.log"
grep -q "Sources breaking the most stories" "$WORK/q_first-reports.log"

# Filter-aware queries with a time window and confidence restriction.
"$BIN_DIR/gdelt_query" --db "$WORK/db" --query top-sources \
    --from 20150225000000 --to 20150305000000 --min-confidence 50 \
    > "$WORK/q_filtered.log" 2>&1
grep -q "restricted" "$WORK/q_filtered.log"
"$BIN_DIR/gdelt_query" --db "$WORK/db" --query coreport --top 5 \
    --min-confidence 50 > "$WORK/q_coreport_filtered.log" 2>&1
grep -q "sources (restricted):" "$WORK/q_coreport_filtered.log"
grep -q "filter selects" "$WORK/q_coreport_filtered.log"
if "$BIN_DIR/gdelt_query" --db "$WORK/db" --query top-sources \
    --from bad-stamp >/dev/null 2>&1; then
  echo "expected failure for bad --from" >&2
  exit 1
fi

# Unknown query must fail loudly.
if "$BIN_DIR/gdelt_query" --db "$WORK/db" --query bogus >/dev/null 2>&1; then
  echo "expected failure for unknown query" >&2
  exit 1
fi
# Unknown flag must fail loudly.
if "$BIN_DIR/gdelt_generate" --bogus-flag >/dev/null 2>&1; then
  echo "expected failure for unknown flag" >&2
  exit 1
fi
echo "cli smoke OK"
