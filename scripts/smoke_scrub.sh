#!/usr/bin/env bash
# Smoke test for anti-entropy and degraded-mode serving over the real
# CLI: serve a journaled node with the background scrubber armed and a
# scheduled fsync-failure window (MINE_FAULT_PLAN), drive writes until
# the disk "fails", and assert the node degrades to read-only (writes
# 503 + Retry-After naming storage, healthz and metrics stay live),
# then self-heals once the window closes — no restart, no operator.
# Afterwards kill -9 the node and run the offline verdicts: `mine
# scrub` and `mine audit --json` must call the journal clean, then a
# deliberately flipped payload byte must turn both verdicts red.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SMOKE_SCRUB_ADDR:-127.0.0.1:7461}"
WORKDIR="$(mktemp -d)"
DB="$WORKDIR/smoke.json"
DATA="$WORKDIR/node"
source scripts/lib.sh

echo "==> build"
cargo build --offline -q --bin mine
MINE=target/debug/mine

echo "==> author a bank at $DB"
"$MINE" init "$DB"
"$MINE" add-tf "$DB" t1 smoke B true "Smoke is rising"
"$MINE" add-choice "$DB" c1 smoke C B "Pick the second option" alpha beta gamma delta
"$MINE" add-exam "$DB" quiz "Smoke quiz" t1 c1

echo "==> serve with the scrubber armed and an fsync-failure window at calls 3..6"
MINE_FAULT_PLAN="disk.fsync_err@3;disk.fsync_err@4;disk.fsync_err@5;disk.fsync_err@6" \
  "$MINE" serve "$DB" --addr "$ADDR" --threads 4 \
  --data-dir "$DATA" --fsync always --scrub-interval 200 &
SERVE_PID=$!
wait_up "$ADDR"

echo "==> write until the disk fails: the node must degrade, not die"
DEGRADED=""
for attempt in $(seq 1 6); do
  CODE="$(curl -s -D "$WORKDIR/headers.txt" -o "$WORKDIR/body.json" \
    -w '%{http_code}' -X POST \
    -d "{\"exam\":\"quiz\",\"student\":\"s$attempt\"}" "http://$ADDR/sessions")"
  if [[ "$CODE" == "503" ]]; then
    DEGRADED=1
    break
  fi
  [[ "$CODE" == "201" ]] || fail "pre-window write answered $CODE"
done
[[ -n "$DEGRADED" ]] || fail "the fsync window never opened"
grep -q "storage degraded" "$WORKDIR/body.json" \
  || fail "503 body does not name storage: $(cat "$WORKDIR/body.json")"
grep -qi "retry-after: 2" "$WORKDIR/headers.txt" \
  || fail "degraded write is missing Retry-After"

echo "==> degraded, not dead: reads and observability stay live"
[[ "$(healthz_field "$ADDR" storage)" == "degraded" ]] \
  || fail "healthz does not report degraded storage"
curl -sf "http://$ADDR/metrics" > "$WORKDIR/metrics.txt"
grep -q 'mine_storage_degraded 1' "$WORKDIR/metrics.txt" \
  || fail "metrics do not report the degraded gauge"

echo "==> the healer closes the window: the node un-degrades itself"
HEALED=""
for _ in $(seq 1 100); do
  if [[ "$(healthz_field "$ADDR" storage)" == "ok" ]]; then
    HEALED=1
    break
  fi
  sleep 0.1
done
[[ -n "$HEALED" ]] || fail "node never healed itself"
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"exam":"quiz","student":"post-heal"}' "http://$ADDR/sessions")"
[[ "$CODE" == "201" ]] || fail "healed node refused a write with $CODE"

echo "==> the background scrubber is passing and publishing ranges"
PASSING=""
for _ in $(seq 1 50); do
  curl -sf "http://$ADDR/metrics" > "$WORKDIR/metrics.txt"
  if grep -Eq 'mine_scrub_passes_total [1-9]' "$WORKDIR/metrics.txt"; then
    PASSING=1
    break
  fi
  sleep 0.1
done
[[ -n "$PASSING" ]] || fail "scrubber never completed a pass"
grep -q 'mine_scrub_corrupt_segments_total 0' "$WORKDIR/metrics.txt" \
  || fail "scrubber reported corruption on a clean journal"
curl -sf "http://$ADDR/admin/ranges" | grep -q '"ranges"' \
  || fail "/admin/ranges did not serve the integrity table"

echo "==> kill -9, then the offline verdicts on the surviving journal"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
"$MINE" scrub "$DATA" || fail "offline scrub found corruption in a clean journal"
"$MINE" scrub "$DATA" --json | grep -q '"clean":true' \
  || fail "scrub --json disagrees with the clean verdict"
"$MINE" audit "$DATA" --db "$DB" --json > "$WORKDIR/audit.json" \
  || fail "audit found violations in a clean journal"
grep -q '"clean":true' "$WORKDIR/audit.json" \
  || fail "audit --json disagrees with the clean verdict"

echo "==> flip one payload byte at rest: both verdicts must turn red"
SEGMENT="$(ls "$DATA"/wal-*.log | head -1)"
printf '\xff' | dd of="$SEGMENT" bs=1 seek=20 conv=notrunc status=none
if "$MINE" scrub "$DATA" > "$WORKDIR/scrub.txt" 2>&1; then
  fail "scrub missed the flipped byte"
fi
grep -q "CORRUPT" "$WORKDIR/scrub.txt" || fail "scrub did not name the damage"
"$MINE" scrub "$DATA" --json > "$WORKDIR/scrub.json" 2>/dev/null || true
grep -q '"clean":false' "$WORKDIR/scrub.json" \
  || fail "scrub --json missed the flipped byte"
if "$MINE" audit "$DATA" --db "$DB" --json > "$WORKDIR/audit.json" 2>/dev/null; then
  fail "audit missed the flipped byte"
fi
grep -q '"clean":false' "$WORKDIR/audit.json" \
  || fail "audit --json missed the flipped byte"

echo "smoke_scrub: OK (degrade, self-heal, online scrub, offline verdicts)"
