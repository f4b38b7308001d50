#!/usr/bin/env bash
# Smoke test for crash recovery: boot a journaled `mine serve`, drive
# sittings through it until its journal holds at least one delta
# snapshot on top of the base, capture the live analysis report, kill -9
# the server, inspect the journal with `mine recover` (which must leave
# every file byte-identical), restart it from the same --data-dir, and
# assert the restarted server serves a byte-identical report and the
# journal audits clean.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:7433}"
CLIENTS="${SMOKE_CLIENTS:-8}"
WORKDIR="$(mktemp -d)"
DB="$WORKDIR/smoke.json"
DATA="$WORKDIR/journal"
source scripts/lib.sh

echo "==> build"
cargo build --offline -q --bin mine
MINE=target/debug/mine

echo "==> author a bank at $DB"
"$MINE" init "$DB"
"$MINE" add-tf "$DB" t1 smoke B true "Smoke is rising"
"$MINE" add-choice "$DB" c1 smoke C B "Pick the second option" alpha beta gamma delta
"$MINE" add-exam "$DB" quiz "Smoke quiz" t1 c1

echo "==> serve on $ADDR with journal at $DATA"
"$MINE" serve "$DB" --addr "$ADDR" --threads 4 \
  --data-dir "$DATA" --fsync never --snapshot-every 16 &
SERVER_PID=$!
wait_up "$ADDR"

echo "==> loadgen: $CLIENTS clients"
"$MINE" loadgen "$ADDR" quiz --clients "$CLIENTS" --seed 11

# One sitting at a time until a compaction has stacked a delta on the
# base. A fold into a new base deletes the deltas, but the fresh base
# holds the whole class while one sitting adds a record or two, so the
# next compaction writes a delta: this ends within a few sittings.
deltas() { compgen -G "$DATA/delta-*.snap" >/dev/null; }
for seed in $(seq 100 139); do
  deltas && break
  "$MINE" loadgen "$ADDR" quiz --clients 1 --seed "$seed" >/dev/null
done
deltas || fail "no delta snapshot after 40 more sittings"
echo "==> journal before the crash: $(cd "$DATA" && echo *.snap)"

echo "==> capture the pre-crash analysis"
curl -sf "http://$ADDR/exams/quiz/analysis" > "$WORKDIR/before.json"
grep -q '"analyses"' "$WORKDIR/before.json" || fail "no analysis before the crash"

echo "==> kill -9 the server"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

echo "==> offline inspection: mine recover (read-only)"
# Every file's name and bytes, to prove the inspection wrote nothing.
hash_dir() { (cd "$1" && find . -type f -print0 | sort -z | xargs -0 sha256sum); }
BEFORE="$(hash_dir "$DATA")"
"$MINE" recover "$DATA"
[[ "$(hash_dir "$DATA")" == "$BEFORE" ]] || fail "mine recover changed the journal"

echo "==> restart from the journal"
"$MINE" serve "$DB" --addr "$ADDR" --threads 4 --data-dir "$DATA" &
SERVER_PID=$!
wait_up "$ADDR"

curl -sf "http://$ADDR/exams/quiz/analysis" > "$WORKDIR/after.json"
cmp "$WORKDIR/before.json" "$WORKDIR/after.json" \
  || fail "analysis changed across the crash"

echo "==> quiesce and audit the journal"
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
"$MINE" audit "$DATA" --db "$DB" || fail "journal audit found violations"

echo "smoke_recover: OK (base + deltas + tail recovered byte-identical across kill -9, audit clean)"
