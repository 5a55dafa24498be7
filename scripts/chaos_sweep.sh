#!/usr/bin/env bash
# Process-level crash/recovery sweep over the broker's write-ahead log.
#
# For every registered crash point on the sell path, this script:
#   1. runs a real `prc_query session --wal` with the point armed in EXIT
#      mode (PRC_CRASH_POINT=<point>:exit) and requires the process to die
#      with the simulated-crash status (42);
#   2. audits the survivor log with `prc_query recover` (conservation,
#      Theorem 4.2 menu re-validation, and the recovered audit timeline,
#      exported with --audit-json, must reconcile CONSISTENT);
#   3. resumes the session against the same log and requires it to finish.
#
# This is the out-of-process complement to tests/chaos_recovery_test.cc:
# the gtest sweep proves the invariants with in-process (throw-mode)
# crashes; this script proves them when the process actually dies with
# buffered state, which is the failure the WAL exists for.
#
# usage: scripts/chaos_sweep.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
PRC_QUERY="$BUILD_DIR/tools/prc_query"
CRASH_EXIT=42  # crashpoints::Registry::kExitStatus

if [ ! -x "$PRC_QUERY" ]; then
  echo "error: $PRC_QUERY not found; build first" >&2
  exit 1
fi

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT
CSV="$WORK_DIR/chaos.csv"
RECORDS=400
NODES=8

"$PRC_QUERY" generate --out "$CSV" --records "$RECORDS" --seed 7 \
  > /dev/null

SESSION_ARGS=(session --csv "$CSV" --index ozone --lower 60 --upper 110
              --sales 3 --budget 50 --nodes "$NODES"
              --checkpoint-interval 1)

# Every sell-path crash point, in execution order (see DESIGN.md,
# "Durability & recovery").  wal.pre_compact_rename fires during recovery
# itself and is covered by the in-process sweep.
POINTS=(
  broker.begin_sale
  wal.pre_intent
  wal.post_intent
  dp.post_mint
  broker.pre_record
  broker.post_record
  wal.post_commit
  wal.pre_checkpoint
  wal.post_checkpoint
)

failures=0
for point in "${POINTS[@]}"; do
  wal="$WORK_DIR/$point.wal"
  rm -f "$wal"

  # 1. Crash mid-session: the armed point must kill the process.
  status=0
  PRC_CRASH_POINT="$point:exit" \
    "$PRC_QUERY" "${SESSION_ARGS[@]}" --wal "$wal" \
    > "$WORK_DIR/$point.crash.log" 2>&1 || status=$?
  if [ "$status" -ne "$CRASH_EXIT" ]; then
    echo "FAIL $point: expected simulated-crash exit $CRASH_EXIT," \
         "got $status" >&2
    failures=$((failures + 1))
    continue
  fi

  # 2. The survivor log must audit clean: budget conservation and the
  #    arbitrage-free menu are preconditions for reopening the market, and
  #    the timeline folded from the log must balance against its ledger.
  if ! "$PRC_QUERY" recover --wal "$wal" --records "$RECORDS" \
       --nodes "$NODES" --audit-json "$WORK_DIR/$point.audit.jsonl" \
       > "$WORK_DIR/$point.recover.log" 2>&1; then
    echo "FAIL $point: recovery audit failed" >&2
    sed 's/^/  /' "$WORK_DIR/$point.recover.log" >&2
    failures=$((failures + 1))
    continue
  fi
  if ! grep -q '^audit reconciliation: .* -> CONSISTENT$' \
       "$WORK_DIR/$point.recover.log"; then
    echo "FAIL $point: recovered audit timeline is not CONSISTENT" >&2
    sed 's/^/  /' "$WORK_DIR/$point.recover.log" >&2
    failures=$((failures + 1))
    continue
  fi

  # 3. A resumed session over the recovered log must complete (recovery
  #    charges orphans against the same --budget cap, so refused sales are
  #    acceptable; dying again is not).
  if ! "$PRC_QUERY" "${SESSION_ARGS[@]}" --wal "$wal" \
       > "$WORK_DIR/$point.resume.log" 2>&1; then
    echo "FAIL $point: resumed session did not complete" >&2
    sed 's/^/  /' "$WORK_DIR/$point.resume.log" >&2
    failures=$((failures + 1))
    continue
  fi

  orphans="$(grep -o 'orphaned_intents [0-9]*' \
             "$WORK_DIR/$point.recover.log" | cut -d' ' -f2)"
  echo "OK $point (orphaned_intents ${orphans:-0})"
done

if [ "$failures" -ne 0 ]; then
  echo "chaos_sweep: $failures crash point(s) FAILED" >&2
  exit 1
fi
echo "chaos_sweep: all ${#POINTS[@]} crash points recovered clean"
