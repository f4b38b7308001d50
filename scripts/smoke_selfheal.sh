#!/usr/bin/env bash
# Smoke test for self-healing replication: boot a three-node cluster
# whose primary ships every WAL frame through a seeded fault schedule
# (MINE_FAULT_PLAN=seed=42 — drops, duplicates, delays, partition
# windows, all replayable from the seed), drive sittings through the
# chaos, kill -9 the primary, and assert that WITH NO OPERATOR ACTION
# exactly one follower auto-promotes at a bumped epoch, serves a
# byte-identical analysis, and accepts writes — then quiesce everything
# and run `mine audit` across all three journals for the final verdict.
set -euo pipefail
cd "$(dirname "$0")/.."

A_ADDR="${SMOKE_A_ADDR:-127.0.0.1:7451}"
A_REPL="${SMOKE_A_REPL:-127.0.0.1:7452}"
B_ADDR="${SMOKE_B_ADDR:-127.0.0.1:7453}"
B_REPL="${SMOKE_B_REPL:-127.0.0.1:7454}"
C_ADDR="${SMOKE_C_ADDR:-127.0.0.1:7455}"
C_REPL="${SMOKE_C_REPL:-127.0.0.1:7456}"
CLIENTS="${SMOKE_CLIENTS:-8}"
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

echo "==> primary on $A_ADDR shipping chaotic WAL (MINE_FAULT_PLAN=seed=42)"
MINE_FAULT_PLAN="seed=42" "$MINE" serve "$DB" --addr "$A_ADDR" --threads 4 \
  --data-dir "$WORKDIR/a" --fsync never --snapshot-every 16 \
  --repl-addr "$A_REPL" &
A_PID=$!
wait_up "$A_ADDR"

echo "==> followers with auto-failover armed (1500ms leader-silence timeout)"
"$MINE" serve "$DB" --addr "$B_ADDR" --threads 4 \
  --data-dir "$WORKDIR/b" --fsync never --snapshot-every 16 \
  --repl-addr "$B_REPL" --replica-of "$A_REPL" \
  --auto-failover=1500 --peers "$C_ADDR" &
B_PID=$!
"$MINE" serve "$DB" --addr "$C_ADDR" --threads 4 \
  --data-dir "$WORKDIR/c" --fsync never --snapshot-every 16 \
  --repl-addr "$C_REPL" --replica-of "$A_REPL" \
  --auto-failover=1500 --peers "$B_ADDR" &
C_PID=$!
wait_up "$B_ADDR"
wait_up "$C_ADDR"

echo "==> loadgen: $CLIENTS clients through the faulty stream"
"$MINE" loadgen "$A_ADDR" quiz --clients "$CLIENTS" --seed 11

echo "==> capture the pre-crash analysis"
curl -sf "http://$A_ADDR/exams/quiz/analysis" > "$WORKDIR/before.json"
grep -q '"analyses"' "$WORKDIR/before.json" || fail "no analysis before the crash"

echo "==> wait for both followers to absorb the chaos"
HEAD="$(healthz_field "$A_ADDR" last_applied_seq)"
[[ "$HEAD" -gt 0 ]] || fail "primary applied nothing"
for node in "$B_ADDR" "$C_ADDR"; do
  APPLIED=0
  for _ in $(seq 1 150); do
    APPLIED="$(healthz_field "$node" last_applied_seq)"
    [[ "$APPLIED" -ge "$HEAD" ]] && break
    sleep 0.1
  done
  [[ "$APPLIED" -ge "$HEAD" ]] || fail "follower $node never caught up ($APPLIED < $HEAD)"
done

echo "==> kill -9 the primary; nobody promotes anybody"
kill -9 "$A_PID"
wait "$A_PID" 2>/dev/null || true

echo "==> wait for exactly one follower to promote itself"
WINNER=""
LOSER=""
for _ in $(seq 1 200); do
  B_ROLE="$(healthz_field "$B_ADDR" role)"
  C_ROLE="$(healthz_field "$C_ADDR" role)"
  if [[ "$B_ROLE" == "primary" && "$C_ROLE" == "primary" ]]; then
    fail "split brain: both followers promoted themselves"
  elif [[ "$B_ROLE" == "primary" ]]; then
    WINNER="$B_ADDR"; LOSER="$C_ADDR"; break
  elif [[ "$C_ROLE" == "primary" ]]; then
    WINNER="$C_ADDR"; LOSER="$B_ADDR"; break
  fi
  sleep 0.1
done
[[ -n "$WINNER" ]] || fail "no follower promoted itself within 20s"
echo "    winner: $WINNER"

[[ "$(healthz_field "$WINNER" epoch)" == "2" ]] \
  || fail "auto-promoted node does not report the bumped epoch"
for _ in $(seq 1 50); do
  [[ "$(healthz_field "$LOSER" epoch)" == "2" ]] && break
  sleep 0.1
done
[[ "$(healthz_field "$LOSER" epoch)" == "2" ]] \
  || fail "loser never adopted the winner's epoch"
[[ "$(healthz_field "$LOSER" role)" == "follower" ]] \
  || fail "loser did not stay a follower"

echo "==> failover is visible in the winner's metrics"
curl -sf "http://$WINNER/metrics" > "$WORKDIR/winner_metrics.txt"
grep -q 'mine_repl_failovers_total 1' "$WORKDIR/winner_metrics.txt" \
  || fail "winner does not count its automatic failover"

echo "==> auto-promoted node serves the same analysis byte for byte"
curl -sf "http://$WINNER/exams/quiz/analysis" > "$WORKDIR/after.json"
cmp "$WORKDIR/before.json" "$WORKDIR/after.json" \
  || fail "analysis changed across the automatic failover"

echo "==> auto-promoted node accepts writes"
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"exam":"quiz","student":"post-selfheal"}' "http://$WINNER/sessions")"
[[ "$CODE" == "201" ]] || fail "auto-promoted node refused a write with $CODE"

echo "==> quiesce the survivors and audit all three journals"
kill "$B_PID" "$C_PID"
wait "$B_PID" 2>/dev/null || true
wait "$C_PID" 2>/dev/null || true
"$MINE" audit "$WORKDIR/a" "$WORKDIR/b" "$WORKDIR/c" --db "$DB" \
  || fail "journal audit found violations after the chaos run"

echo "smoke_selfheal: OK (seeded chaos, unsupervised failover, audit clean)"
