#!/usr/bin/env bash
# Regenerates BENCH_streaming_analysis.json reproducibly.
#
# The workload is fully deterministic (fixed simulation seed 4242
# inside benches/streaming_analysis.rs), so run-to-run differences are
# machine noise, not input drift. The first line of the artifact is a
# header recording the machine the numbers came from; the rest is one
# JSON line per measurement, appended by the bench via CRITERION_JSON:
# per-finish update p50/p99/max at each class size, then the analysis
# read minima (streaming, streaming+serialize, batch cold).
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_streaming_analysis.json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

printf '{"header":{"generated_by":"scripts/bench_streaming.sh","host_os":"%s","kernel":"%s","arch":"%s","cpus":%s,"rustc":"%s","workload":"50 questions x 10/100/1000/10000 sittings of one exam, seed 4242"}}\n' \
    "$(uname -s)" \
    "$(uname -r)" \
    "$(uname -m)" \
    "$(nproc)" \
    "$(rustc --version | sed 's/"/\\"/g')" \
    > "$tmp"

CRITERION_JSON="$tmp" cargo bench --offline -p mine-bench --bench streaming_analysis

mv "$tmp" "$out"
trap - EXIT
echo "wrote $out:"
head -1 "$out"
