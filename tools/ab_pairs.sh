#!/usr/bin/env bash
# Compare two builds of the benchmark by alternating pairs of runs.
#
#   tools/ab_pairs.sh <tree-a> <tree-b> <workload> <pairs> <seconds>
#
# <tree-a> (the baseline) and <tree-b> (the change) are checkouts of this
# repository. Each run is the benchmark's end-to-end form, inside its tree,
# at the benchmark's default seed:
#
#   cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
#       -- run --workload <workload> --seconds <seconds> --trace 0
#
# Each tree builds into its own <tree>/benchmark/target, once, before the
# first pair; put the two trees at paths of equal length, so that the
# linker lays both binaries out alike. A pair runs A then B, the next B
# then A, so a drift of the host's speed over minutes falls on both sides
# alike; compare two builds no other way.
#
# Output: one line per run (pair, side, correctness, each end-to-end metric
# of the run's JSON line), then per metric each side's median and quartiles,
# B's median over A's, and in how many pairs B read lower (every end-to-end
# metric of BENCHMARK.json is better lower). Exits 1 if a run failed or was
# not correct.
set -euo pipefail

if [ $# -ne 5 ]; then
    sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
tree_a=$(cd "$1" && pwd)
tree_b=$(cd "$2" && pwd)
workload=$3
pairs=$4
seconds=$5

bench() { # <tree> <cargo subcommand> [args...]
    (cd "$1" && CARGO_TARGET_DIR=$1/benchmark/target cargo "$2" --release --offline \
        --quiet --manifest-path benchmark/Cargo.toml "${@:3}")
}

bench "$tree_a" build
bench "$tree_b" build

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then order="A B"; else order="B A"; fi
    for side in $order; do
        if [ "$side" = A ]; then tree=$tree_a; else tree=$tree_b; fi
        json=$(bench "$tree" run -- run --workload "$workload" --seconds "$seconds" \
            --trace 0 2>/dev/null | tail -n 1) || true
        printf '%s\n' "$json" | awk -v pair="$pair" -v side="$side" '
            {
                correct = ($0 ~ /"correct": *true/) ? "true" : "false"
                failed = $0
                if (sub(/.*"failed": */, "", failed)) sub(/[^0-9].*/, "", failed)
                else failed = "?"
                line = sprintf("pair %d %s correct=%s failed=%s", pair, side, correct, failed)
                m = $0
                sub(/.*"metrics": *\{/, "", m)
                while (match(m, /"[A-Za-z0-9_.]+": *\{ *"value": *[-+0-9.eE]+/)) {
                    kv = substr(m, RSTART, RLENGTH)
                    m = substr(m, RSTART + RLENGTH)
                    name = kv
                    sub(/^"/, "", name)
                    sub(/".*/, "", name)
                    value = kv
                    sub(/.*"value": */, "", value)
                    line = line sprintf(" %s=%s", name, value)
                }
                print line
            }' | tee -a "$runs"
    done
done

awk -v pairs="$pairs" '
    function key(side, name, pair) { return side SUBSEP name SUBSEP pair }
    function quantile(xs, n, q,    pos, lo) {
        pos = (n - 1) * q
        lo = int(pos)
        return lo + 1 < n ? xs[lo] + (pos - lo) * (xs[lo + 1] - xs[lo]) : xs[lo]
    }
    function sorted(side, name, xs,    n, p, i, j, t) {
        n = 0
        for (p = 1; p <= pairs; p++)
            if (key(side, name, p) in value) xs[n++] = value[key(side, name, p)]
        for (i = 1; i < n; i++)
            for (j = i; j > 0 && xs[j - 1] > xs[j]; j--) {
                t = xs[j]; xs[j] = xs[j - 1]; xs[j - 1] = t
            }
        return n
    }
    {
        pair = $2; side = $3
        if ($4 != "correct=true" || $5 != "failed=0") bad++
        for (f = 6; f <= NF; f++) {
            split($f, kv, "=")
            if (!(kv[1] in seen)) { seen[kv[1]] = 1; names[++n_names] = kv[1] }
            value[key(side, kv[1], pair)] = kv[2]
        }
    }
    END {
        for (k = 1; k <= n_names; k++) {
            name = names[k]
            na = sorted("A", name, a)
            nb = sorted("B", name, b)
            wins = 0; both = 0
            for (p = 1; p <= pairs; p++) {
                ka = key("A", name, p); kb = key("B", name, p)
                if ((ka in value) && (kb in value)) {
                    both++
                    if (value[kb] + 0 < value[ka] + 0) wins++
                }
            }
            if (na == 0 || nb == 0) { printf "%-8s  no runs on one side\n", name; continue }
            ma = quantile(a, na, 0.5); mb = quantile(b, nb, 0.5)
            printf "%-8s  A %.4f [%.4f, %.4f]  B %.4f [%.4f, %.4f]  B/A %.3f  B lower in %d/%d pairs\n",
                name, ma, quantile(a, na, 0.25), quantile(a, na, 0.75),
                mb, quantile(b, nb, 0.25), quantile(b, nb, 0.75), (ma > 0 ? mb / ma : 0), wins, both
        }
        if (bad) { printf "%d run(s) failed or were not correct\n", bad; exit 1 }
    }' "$runs"
