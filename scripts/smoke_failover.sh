#!/usr/bin/env bash
# Smoke test for replicated failover: boot a journaled primary shipping
# its WAL to a live follower, drive sittings through the primary,
# capture the live analysis, kill -9 the primary, promote the follower
# with `mine promote`, and assert the promoted node serves a
# byte-identical report at a bumped epoch — with the replication gauges
# visible in /metrics along the way.
set -euo pipefail
cd "$(dirname "$0")/.."

PRIMARY_ADDR="${SMOKE_PRIMARY_ADDR:-127.0.0.1:7441}"
PRIMARY_REPL="${SMOKE_PRIMARY_REPL:-127.0.0.1:7442}"
FOLLOWER_ADDR="${SMOKE_FOLLOWER_ADDR:-127.0.0.1:7443}"
FOLLOWER_REPL="${SMOKE_FOLLOWER_REPL:-127.0.0.1:7444}"
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

echo "==> primary on $PRIMARY_ADDR shipping WAL from $PRIMARY_REPL"
"$MINE" serve "$DB" --addr "$PRIMARY_ADDR" --threads 4 \
  --data-dir "$WORKDIR/primary" --fsync never --snapshot-every 16 \
  --repl-addr "$PRIMARY_REPL" &
PRIMARY_PID=$!
wait_up "$PRIMARY_ADDR"

echo "==> follower on $FOLLOWER_ADDR replicating from $PRIMARY_REPL"
"$MINE" serve "$DB" --addr "$FOLLOWER_ADDR" --threads 4 \
  --data-dir "$WORKDIR/follower" --fsync never --snapshot-every 16 \
  --repl-addr "$FOLLOWER_REPL" --replica-of "$PRIMARY_REPL" &
FOLLOWER_PID=$!
wait_up "$FOLLOWER_ADDR"

echo "==> loadgen: $CLIENTS clients against the primary"
"$MINE" loadgen "$PRIMARY_ADDR" quiz --clients "$CLIENTS" --seed 11

echo "==> capture the pre-crash analysis"
curl -sf "http://$PRIMARY_ADDR/exams/quiz/analysis" > "$WORKDIR/before.json"
grep -q '"analyses"' "$WORKDIR/before.json" || fail "no analysis before the crash"

echo "==> replication gauges visible in /metrics"
# Fetch to a file, then grep: `curl | grep -q` under pipefail races
# grep's early exit against curl's last write (EPIPE, exit 23).
curl -sf "http://$PRIMARY_ADDR/metrics" > "$WORKDIR/primary_metrics.txt"
grep -q 'mine_repl_role{role="primary"} 1' "$WORKDIR/primary_metrics.txt" \
  || fail "primary does not report its role gauge"
grep -q 'mine_repl_followers 1' "$WORKDIR/primary_metrics.txt" \
  || fail "primary does not report its connected follower"
curl -sf "http://$FOLLOWER_ADDR/metrics" > "$WORKDIR/follower_metrics.txt"
grep -q 'mine_repl_role{role="follower"} 1' "$WORKDIR/follower_metrics.txt" \
  || fail "follower does not report its role gauge"

echo "==> wait for the follower to catch up"
HEAD="$(healthz_field "$PRIMARY_ADDR" last_applied_seq)"
[[ "$HEAD" -gt 0 ]] || fail "primary applied nothing"
for _ in $(seq 1 100); do
  APPLIED="$(healthz_field "$FOLLOWER_ADDR" last_applied_seq)"
  [[ "$APPLIED" -ge "$HEAD" ]] && break
  sleep 0.1
done
[[ "$APPLIED" -ge "$HEAD" ]] || fail "follower never caught up ($APPLIED < $HEAD)"

echo "==> writes against the follower are redirected (421)"
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"exam":"quiz","student":"rogue"}' "http://$FOLLOWER_ADDR/sessions")"
[[ "$CODE" == "421" ]] || fail "follower answered a write with $CODE, not 421"

echo "==> kill -9 the primary"
kill -9 "$PRIMARY_PID"
wait "$PRIMARY_PID" 2>/dev/null || true

echo "==> mine promote $FOLLOWER_ADDR"
"$MINE" promote "$FOLLOWER_ADDR"
[[ "$(healthz_field "$FOLLOWER_ADDR" role)" == "primary" ]] \
  || fail "promoted node does not report role=primary"
[[ "$(healthz_field "$FOLLOWER_ADDR" epoch)" == "2" ]] \
  || fail "promoted node does not report the bumped epoch"
curl -sf "http://$FOLLOWER_ADDR/metrics" > "$WORKDIR/promoted_metrics.txt"
grep -q 'mine_repl_epoch 2' "$WORKDIR/promoted_metrics.txt" \
  || fail "promoted node does not expose the bumped epoch gauge"

echo "==> promoted node serves the same analysis byte for byte"
curl -sf "http://$FOLLOWER_ADDR/exams/quiz/analysis" > "$WORKDIR/after.json"
cmp "$WORKDIR/before.json" "$WORKDIR/after.json" \
  || fail "analysis changed across the failover"

echo "==> promoted node accepts writes"
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"exam":"quiz","student":"post-failover"}' "http://$FOLLOWER_ADDR/sessions")"
[[ "$CODE" == "201" ]] || fail "promoted node refused a write with $CODE"

echo "==> quiesce the survivor and audit both journals"
kill "$FOLLOWER_PID"
wait "$FOLLOWER_PID" 2>/dev/null || true
"$MINE" audit "$WORKDIR/primary" "$WORKDIR/follower" --db "$DB" \
  || fail "cross-node audit found violations"

echo "smoke_failover: OK (zero acked events lost, analysis byte-identical, audit clean)"
