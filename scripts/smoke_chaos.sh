#!/usr/bin/env bash
# Chaos smoke test for overload + graceful shutdown: boot a journaled
# `mine serve` with tight admission limits, drive load past capacity
# (shed/retry counters visible in the loadgen report), send a real
# SIGTERM mid-storm, and assert the server drains and exits 0, the
# journal recovers offline, and a graceful restart cycle serves a
# byte-identical analysis report.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:7437}"
WORKDIR="$(mktemp -d)"
DB="$WORKDIR/smoke.json"
DATA="$WORKDIR/journal"
LOG="$WORKDIR/server.log"
source scripts/lib.sh

echo "==> build"
cargo build --offline -q --bin mine
MINE=target/debug/mine

echo "==> author a bank at $DB"
"$MINE" init "$DB"
"$MINE" add-tf "$DB" t1 smoke B true "Smoke is rising"
"$MINE" add-choice "$DB" c1 smoke C B "Pick the second option" alpha beta gamma delta
"$MINE" add-exam "$DB" quiz "Smoke quiz" t1 c1

serve() {
  "$MINE" serve "$DB" --addr "$ADDR" --threads 2 \
    --data-dir "$DATA" --fsync never --snapshot-every 32 \
    --queue-depth 8 --drain-deadline 5 >>"$LOG" 2>&1 &
  SERVER_PID=$!
  wait_up "$ADDR"
}

echo "==> serve on $ADDR (threads 2, queue depth 8, journal at $DATA)"
serve

echo "==> baseline load (finished sittings the drain must not lose)"
"$MINE" loadgen "$ADDR" quiz --clients 6 --seed 7 \
  || fail "baseline loadgen failed"
curl -sf "http://$ADDR/exams/quiz/analysis" > "$WORKDIR/baseline.json"
grep -q '"analyses"' "$WORKDIR/baseline.json" \
  || fail "no analysis after baseline load"

echo "==> storm past capacity, SIGTERM mid-storm"
"$MINE" loadgen "$ADDR" quiz --clients 16 --seed 23 --ramp 1 \
  >"$WORKDIR/storm.log" 2>&1 &
STORM_PID=$!
sleep 0.5
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server did not exit 0 after SIGTERM"
grep -q "drained:" "$LOG" || fail "server never printed a drain report"
grep "drained:" "$LOG" | tail -1
grep -q "snapshot=true" "$LOG" || fail "drain did not write the final snapshot"
# The storm clients were shed during the drain; their report (with shed
# and retry counts) is informational, their exit code is not asserted.
wait "$STORM_PID" 2>/dev/null || true
grep "loadgen:" "$WORKDIR/storm.log" || true

echo "==> offline inspection: mine recover"
"$MINE" recover "$DATA"

echo "==> restart from the journal, capture analysis"
serve
curl -sf "http://$ADDR/exams/quiz/analysis" > "$WORKDIR/after-drain.json"
grep -q '"analyses"' "$WORKDIR/after-drain.json" \
  || fail "finished sittings lost across the drain"

echo "==> second graceful cycle must be byte-identical"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "idle server did not exit 0 after SIGTERM"
serve
curl -sf "http://$ADDR/exams/quiz/analysis" > "$WORKDIR/after-restart.json"
cmp "$WORKDIR/after-drain.json" "$WORKDIR/after-restart.json" \
  || fail "analysis changed across a graceful restart"

echo "smoke_chaos: OK (SIGTERM drained cleanly, analysis byte-identical)"
