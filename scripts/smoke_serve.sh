#!/usr/bin/env bash
# Smoke test for the serving layer: build the CLI, author a small bank,
# boot `mine serve`, drive it with `mine loadgen`, and assert /metrics
# reports a clean run (no 4xx/5xx, every session finished).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:7431}"
CLIENTS="${SMOKE_CLIENTS:-16}"
WORKDIR="$(mktemp -d)"
DB="$WORKDIR/smoke.json"
source scripts/lib.sh

echo "==> build"
cargo build --offline -q --bin mine
MINE=target/debug/mine

echo "==> author a bank at $DB"
"$MINE" init "$DB"
"$MINE" add-tf "$DB" t1 smoke B true "Smoke is rising"
"$MINE" add-choice "$DB" c1 smoke C B "Pick the second option" alpha beta gamma delta
"$MINE" add-exam "$DB" quiz "Smoke quiz" t1 c1

echo "==> serve on $ADDR"
"$MINE" serve "$DB" --addr "$ADDR" --threads 4 &

# Wait for the listener (up to ~5s).
for _ in $(seq 1 50); do
  if "$MINE" loadgen "$ADDR" quiz --clients 1 --seed 999 >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done

echo "==> loadgen: $CLIENTS clients"
"$MINE" loadgen "$ADDR" quiz --clients "$CLIENTS" --seed 7

echo "==> metrics"
METRICS="$(curl -sf "http://$ADDR/metrics?format=json")"
echo "$METRICS"

# The default /metrics rendering is Prometheus text exposition format.
# Fetch to a variable, then grep: `curl | grep -q` under pipefail races
# grep's early exit against curl's last write (EPIPE, exit 23).
PROM="$(curl -sf "http://$ADDR/metrics")"
echo "$PROM" | grep -q '# TYPE mine_requests_total counter' \
  || fail "/metrics is not Prometheus text format"

# The probe client plus the real run must all have finished cleanly.
WANT=$((CLIENTS + 1))
echo "$METRICS" | grep -q "\"status_4xx\":0" || fail "saw 4xx responses"
echo "$METRICS" | grep -q "\"status_5xx\":0" || fail "saw 5xx responses"
echo "$METRICS" | grep -q "\"sessions_started\":$WANT" || fail "expected $WANT sessions started"
echo "$METRICS" | grep -q "\"sessions_finished\":$WANT" || fail "expected $WANT sessions finished"
echo "$METRICS" | grep -q "\"active_sessions\":0" || fail "sessions still active"

# The live analysis endpoint serves a report over the finished sittings.
ANALYSIS="$(curl -sf "http://$ADDR/exams/quiz/analysis")"
echo "$ANALYSIS" | grep -q '"analyses"' \
  || fail "analysis endpoint did not return a report"

echo "smoke_serve: OK ($WANT sittings, clean metrics)"
