#!/usr/bin/env bash
# Full local gate: format, lint, test. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# Also runs the server loopback, registry-concurrency and crash-recovery
# suites and the store fault-injection suite; they are not repeated below.
echo "==> cargo test"
cargo test --workspace --offline -q

# vendor/ is outside the workspace; run the JSON shim's own unit tests.
echo "==> cargo test -p serde_json (vendored JSON shim)"
cargo test --offline -q -p serde_json

echo "==> recovery smoke (kill -9 with base + delta snapshots on disk, byte-identical analysis, mine audit)"
timeout 120 scripts/smoke_recover.sh

echo "==> served-path benchmark smoke (every workload + the traced run, tiny scale)"
timeout 300 cargo test --offline -q --manifest-path servebench/Cargo.toml

echo "==> server chaos tests (overload shed, deadlines, drain mid-storm)"
timeout 60 cargo test --offline -q -p mine-server --test chaos

echo "==> chaos smoke (real SIGTERM drain over the CLI)"
timeout 60 scripts/smoke_chaos.sh

echo "==> adaptive delivery tests (CAT over HTTP, 422 validation, replay parity)"
cargo test --offline -q -p mine-server --test adaptive

echo "==> adaptive smoke (calibrate, CAT loadgen, kill -9, byte-identical resume)"
timeout 60 scripts/smoke_adaptive.sh

echo "==> server replication tests (kill -9 primary, promote, epoch fencing)"
timeout 60 cargo test --offline -q -p mine-server --test replication

echo "==> failover smoke (kill -9 primary, mine promote, byte-identical analysis)"
timeout 60 scripts/smoke_failover.sh

echo "==> self-healing tests (seeded fault schedule, kill -9, auto-failover, in-process audit)"
timeout 60 cargo test --offline -q -p mine-server --test selfheal

echo "==> self-healing smoke (seeded chaos, kill -9 primary, unsupervised failover, mine audit)"
timeout 60 scripts/smoke_selfheal.sh

echo "==> anti-entropy tests (online bitrot quarantine + repair, degraded primary promoted past)"
timeout 60 cargo test --offline -q -p mine-server --test antientropy

echo "==> anti-entropy smoke (degrade on fsync failure, self-heal, offline scrub verdicts)"
timeout 60 scripts/smoke_scrub.sh

echo "==> analysis perf smoke (pooled 4t >=1.5x the frozen naive baseline; MINE_SKIP_PERF_SMOKE=1 skips)"
timeout 120 cargo test --offline -q -p mine-bench --test perf_smoke

echo "==> streaming perf smoke (counter reads >=250x the frozen naive baseline at 1000 sittings; MINE_SKIP_PERF_SMOKE=1 skips)"
timeout 120 cargo test --offline -q -p mine-bench --test streaming_smoke

echo "All checks passed."
