#!/usr/bin/env bash
# A/B comparison of the served-path benchmark: a base revision against
# the working tree.
#
#   scripts/bench_ab.sh <base-rev> [pairs] [workload...]
#
# Builds <base-rev> and the working tree (tracked and untracked files,
# uncommitted edits included; ignored files excluded) in two git
# worktrees with separate target dirs under one temp dir. Then, for each
# workload (default: every workload BENCHMARK.json lists), runs
# servebench with BENCHMARK.json's command and run_seconds in pairs
# (seed = pair number; default 5 pairs), alternating which side runs
# first. For every metric line servebench prints it reports the median
# and interquartile range on each side, the change/base ratio of the
# medians and, for the end-to-end metrics BENCHMARK.json bounds, in how
# many pairs the change was better. The worktrees and the temp dir are
# removed on exit. Nothing under servebench/ is touched.
set -euo pipefail
cd "$(dirname "$0")/.."
repo="$(pwd)"

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <base-rev> [pairs] [workload...]" >&2
    exit 2
fi
base_rev="$(git rev-parse --verify "$1^{commit}")"
pairs="${2:-5}"
shift $(($# < 2 ? $# : 2))
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "pairs must be a positive number, got '$pairs'" >&2; exit 2; }

tmp="$(mktemp -d)"
cleanup() {
    for side in base change; do
        [[ -d "$tmp/$side" ]] && git -C "$repo" worktree remove --force "$tmp/$side" >/dev/null 2>&1
    done
    git -C "$repo" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT

# Snapshot the working tree as a commit without touching the real index.
cp "$(git rev-parse --git-path index)" "$tmp/index"
GIT_INDEX_FILE="$tmp/index" git add -A
tree="$(GIT_INDEX_FILE="$tmp/index" git write-tree)"
change_rev="$(git commit-tree "$tree" -p HEAD -m "bench_ab: working tree")"

bench="BENCHMARK.json"
read -r -a command <<<"$(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' "$bench" | tr -d '",')"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$bench")"
if [[ $# -gt 0 ]]; then
    workloads=("$@")
else
    mapfile -t workloads < <(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' "$bench")
fi
# "<metric> <lower|higher>" for every bounded end-to-end metric.
sed -n 's/.*{"name": *"\([^"]*\)", *"unit": *"[^"]*", *"better": *"\([a-z]*\)", *"bound".*/\1 \2/p' \
    "$bench" >"$tmp/better"

for side in base change; do
    rev="$base_rev"
    [[ $side == change ]] && rev="$change_rev"
    git worktree add --detach --quiet "$tmp/$side" "$rev"
    echo "==> building $side ($(git rev-parse --short "$rev"))" >&2
    (
        cd "$tmp/$side"
        export CARGO_TARGET_DIR="$tmp/target-$side"
        cargo build --release --offline --quiet --bin mine
        cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml
    )
done

mkdir "$tmp/runs"
for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        # Alternate which side runs first, so drift within a pair
        # (thermal, neighbours) does not always favour one side.
        order="base change"
        ((pair % 2 == 0)) && order="change base"
        for side in $order; do
            echo "==> $workload pair $pair/$pairs: $side" >&2
            out="$tmp/runs/$workload.$side.$pair"
            (
                cd "$tmp/$side"
                CARGO_TARGET_DIR="$tmp/target-$side" "${command[@]}" \
                    --workload "$workload" --seed "$pair" --seconds "$seconds" --trace 0
            ) >"$out" || { echo "servebench failed ($workload, $side, pair $pair):" >&2; tail -20 "$out" >&2; exit 1; }
        done
    done
done

echo "# base $(git rev-parse --short "$base_rev") vs working tree; $pairs pairs of ${seconds}s runs, seeds 1..$pairs, order alternating"
for workload in "${workloads[@]}"; do
    echo
    echo "## $workload"
    printf '%-28s %12s %10s %12s %10s %8s %6s\n' metric base_med base_iqr change_med change_iqr ratio wins
    for pair in $(seq 1 "$pairs"); do
        for side in base change; do
            awk -v side="$side" -v pair="$pair" '$1 == "metric" { print $2, side, pair, $3 }' \
                "$tmp/runs/$workload.$side.$pair"
        done
    done | awk -v better_file="$tmp/better" '
        BEGIN {
            while ((getline line < better_file) > 0) { split(line, f, " "); better[f[1]] = f[2] }
        }
        { if (!($1 in seen)) { seen[$1] = 1; order[++names] = $1 }
          value[$1, $2, $3] = $4; if ($3 > pairs) pairs = $3 }
        function quantile(xs, n, p,    h, lo) {
            h = (n - 1) * p; lo = int(h)
            return lo + 1 < n ? xs[lo] + (h - lo) * (xs[lo + 1] - xs[lo]) : xs[lo]
        }
        function sorted(name, side, xs,    n, i, j, t) {
            n = 0
            for (i = 1; i <= pairs; i++) if ((name, side, i) in value) xs[n++] = value[name, side, i] + 0
            for (i = 1; i < n; i++) for (j = i; j > 0 && xs[j - 1] > xs[j]; j--) { t = xs[j]; xs[j] = xs[j - 1]; xs[j - 1] = t }
            return n
        }
        END {
            for (k = 1; k <= names; k++) {
                name = order[k]; delete b; delete c
                nb = sorted(name, "base", b); nc = sorted(name, "change", c)
                if (nb == 0 || nc == 0) continue
                bm = quantile(b, nb, 0.5); cm = quantile(c, nc, 0.5)
                biqr = quantile(b, nb, 0.75) - quantile(b, nb, 0.25)
                ciqr = quantile(c, nc, 0.75) - quantile(c, nc, 0.25)
                ratio = bm == 0 ? "-" : sprintf("%.3f", cm / bm)
                wins = "-"
                if (name in better) {
                    won = 0; played = 0
                    for (i = 1; i <= pairs; i++) {
                        if (!((name, "base", i) in value) || !((name, "change", i) in value)) continue
                        played++
                        d = value[name, "change", i] - value[name, "base", i]
                        if ((better[name] == "lower" && d < 0) || (better[name] == "higher" && d > 0)) won++
                    }
                    wins = won "/" played
                }
                printf "%-28s %12.6g %10.4g %12.6g %10.4g %8s %6s\n", name, bm, biqr, cm, ciqr, ratio, wins
            }
        }'
done
