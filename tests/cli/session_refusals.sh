#!/usr/bin/env bash
# Golden check of `prc_query session`'s refusal lines.
#
# Runs two sessions in which every sale is refused and compares their
# `sale ...` and `completed_sales ...` lines, byte for byte, with
# session_refusals.golden:
#   1. a per-consumer budget (--budget 1e-9) below any plan's epsilon', so
#      each sale is a budget refusal ("privacy budget exceeded ...");
#   2. a lossy channel (90% frame loss, one attempt per frame) that leaves
#      coverage at 0, so each sale is a coverage refusal under the default
#      refuse policy ("sale refused: ...").
#
# usage: tests/cli/session_refusals.sh <prc_query> <golden-file>
set -euo pipefail

PRC_QUERY="$1"
GOLDEN="$2"

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT
CSV="$WORK_DIR/refusals.csv"
"$PRC_QUERY" generate --out "$CSV" --records 6000 --seed 7 > /dev/null

SESSION=(session --csv "$CSV" --index ozone --lower 60 --upper 110)
{
  "$PRC_QUERY" "${SESSION[@]}" --sales 4 --budget 1e-9
  "$PRC_QUERY" "${SESSION[@]}" --sales 3 --frame-loss 0.9 --max-attempts 1
} > "$WORK_DIR/session.txt"
grep -E '^(sale|completed_sales)' "$WORK_DIR/session.txt" \
  > "$WORK_DIR/lines.txt" || true
if ! diff -u "$GOLDEN" "$WORK_DIR/lines.txt"; then
  echo "FAIL: session refusal lines differ from $GOLDEN" >&2
  exit 1
fi
echo "session refusal lines match ($(wc -l < "$GOLDEN") lines)"
