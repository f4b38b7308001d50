#!/usr/bin/env bash
# Smoke test for adaptive (CAT) delivery: author and calibrate a bank,
# boot a journaled `mine serve`, drive adaptive and mixed loadgen
# populations through it, leave one CAT sitting mid-flight, kill -9
# the server, recover from the same --data-dir, and assert the sitting
# resumed byte-identically (same ability estimate, same next item)
# before finishing it on the restarted server.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:7437}"
CLIENTS="${SMOKE_CLIENTS:-6}"
WORKDIR="$(mktemp -d)"
DB="$WORKDIR/smoke.json"
DATA="$WORKDIR/journal"
source scripts/lib.sh

echo "==> build"
cargo build --offline -q --bin mine
MINE=target/debug/mine

echo "==> author a bank at $DB"
"$MINE" init "$DB"
for i in 1 2 3 4 5 6; do
  "$MINE" add-choice "$DB" "c$i" smoke A A "Calibrated item $i" right wrong1 wrong2 wrong3
done
"$MINE" add-exam "$DB" quiz "Adaptive smoke quiz" c1 c2 c3 c4 c5 c6

echo "==> calibrate the whole bank (adaptive delivery refuses raw items)"
"$MINE" calibrate "$DB" --auto

echo "==> serve on $ADDR with journal at $DATA"
"$MINE" serve "$DB" --addr "$ADDR" --threads 4 \
  --data-dir "$DATA" --fsync never --snapshot-every 16 &
SERVER_PID=$!
wait_up "$ADDR"

echo "==> loadgen: $CLIENTS adaptive clients (simulated IRT respondents)"
"$MINE" loadgen "$ADDR" quiz --clients "$CLIENTS" --seed 11 --mode adaptive --db "$DB"

echo "==> loadgen: $CLIENTS mixed fixed/adaptive clients"
"$MINE" loadgen "$ADDR" quiz --clients "$CLIENTS" --seed 12 --mode mixed --db "$DB"

echo "==> start a CAT sitting and leave it mid-flight (one step journaled)"
curl -sf -X POST "http://$ADDR/sessions" \
  -d '{"exam":"quiz","student":"midflight","seed":3,"mode":"adaptive","max_items":6,"se_threshold":0.001}' \
  > "$WORKDIR/start.json"
grep -q '"mode":"adaptive"' "$WORKDIR/start.json" || fail "sitting did not start adaptive"
SESSION="$(sed -n 's/.*"session":"\([^"]*\)".*/\1/p' "$WORKDIR/start.json")"
[[ -n "$SESSION" ]] || fail "no session id in $(cat "$WORKDIR/start.json")"
curl -sf -X POST "http://$ADDR/sessions/$SESSION/answers" \
  -d '{"answer":{"Choice":"A"},"time_spent_secs":5}' > /dev/null \
  || fail "mid-flight answer refused"

echo "==> capture the pre-crash adaptive status and analysis"
curl -sf "http://$ADDR/sessions/$SESSION" > "$WORKDIR/status_before.json"
grep -q '"steps":1' "$WORKDIR/status_before.json" || fail "step was not recorded"
curl -sf "http://$ADDR/exams/quiz/analysis" > "$WORKDIR/before.json"
grep -q '"analyses"' "$WORKDIR/before.json" || fail "no analysis before the crash"

echo "==> kill -9 the server"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

echo "==> offline inspection: mine recover"
"$MINE" recover "$DATA"

echo "==> restart from the journal"
"$MINE" serve "$DB" --addr "$ADDR" --threads 4 --data-dir "$DATA" &
SERVER_PID=$!
wait_up "$ADDR"

echo "==> the CAT sitting resumed byte-identically (θ̂, SE, next item)"
curl -sf "http://$ADDR/sessions/$SESSION" > "$WORKDIR/status_after.json"
cmp "$WORKDIR/status_before.json" "$WORKDIR/status_after.json" \
  || fail "adaptive status changed across the crash"

echo "==> the analysis over the mixed population survived byte-identically"
curl -sf "http://$ADDR/exams/quiz/analysis" > "$WORKDIR/after.json"
cmp "$WORKDIR/before.json" "$WORKDIR/after.json" \
  || fail "analysis changed across the crash"
curl -sf "http://$ADDR/exams/quiz/analysis?mode=batch" > "$WORKDIR/batch.json"
cmp "$WORKDIR/after.json" "$WORKDIR/batch.json" \
  || fail "streaming and batch analysis disagree after recovery"

echo "==> finish the resumed sitting on the restarted server"
curl -sf -X POST "http://$ADDR/sessions/$SESSION/answers" \
  -d '{"answer":{"Choice":"B"},"time_spent_secs":4}' > /dev/null \
  || fail "post-recovery answer refused"
curl -sf -X POST "http://$ADDR/sessions/$SESSION/finish" > "$WORKDIR/record.json" \
  || fail "post-recovery finish refused"
grep -q '"student":"midflight"' "$WORKDIR/record.json" || fail "finish filed no record"

echo "smoke_adaptive: OK (CAT sitting resumed byte-identically across kill -9)"
