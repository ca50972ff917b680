#!/bin/sh
# Alternating A/B pairs of the judged benchmark (BENCHMARK.json) between two
# checkouts of this repository — the protocol a timing claim needs:
#
#   scripts/ab_pairs.sh <parent-checkout> <change-checkout> <workload> [pairs=10] [seed=1]
#
# Builds the stand-alone ledger package in each checkout (into that package's
# own target/), then runs BENCHMARK.json's command with
# `--workload W --seed S --seconds <run_seconds> --trace 0` once per side per
# pair, alternating which side goes first. Prints, per end-to-end metric, both
# medians, both quartile pairs, in how many pairs the change read better, a
# verdict against the benchmark's bound, and whether every exact metric is
# equal in every run. Exits 1 if a run fails or an exact metric differs.
# Needs only sh, cargo and python3; edits nothing in either checkout.
set -eu

if [ $# -lt 3 ]; then
    sed -n '2,15p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed=${5:-1}
out=$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")
trap 'rm -rf "$out"' EXIT

manifest_field() {
    python3 -c 'import json,sys; m=json.load(open(sys.argv[1])); v=m[sys.argv[2]]; print("\n".join(v) if isinstance(v,list) else v)' \
        "$change/BENCHMARK.json" "$1"
}
seconds=$(manifest_field run_seconds)
package=$(manifest_field paths | head -n 1)

for side in "$parent" "$change"; do
    echo "building $side/$package" >&2
    (cd "$side" && cargo build --release --quiet --offline --manifest-path "$package/Cargo.toml")
done

# One run of the manifest's command in checkout $1; its last stdout line (the
# metrics JSON) goes to file $2.
run_side() {
    (
        cd "$1"
        set -f
        IFS='
'
        # One word per line of the manifest's `command` array.
        set -- $(manifest_field command)
        "$@" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
    ) | tail -n 1 >"$2"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run_side "$parent" "$out/parent.$i"
        run_side "$change" "$out/change.$i"
    else
        run_side "$change" "$out/change.$i"
        run_side "$parent" "$out/parent.$i"
    fi
    echo "pair $i/$pairs done" >&2
    i=$((i + 1))
done

python3 - "$change/BENCHMARK.json" "$out" "$pairs" "$workload" "$seed" <<'PYEOF'
import json, statistics, sys

manifest, out, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
runs = {side: [json.loads(open(f"{out}/{side}.{i}").read()) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}
ok = True
for side, docs in runs.items():
    bad = [i + 1 for i, d in enumerate(docs) if not d.get("correct") or d.get("failed", 1) != 0]
    if bad:
        ok = False
        print(f"FAILED RUNS on {side}: pairs {bad}")

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]

print(f"workload {sys.argv[4]}  seed {sys.argv[5]}  pairs {pairs}")
print(f"{'metric':24} {'parent median [q1, q3]':>40} {'change median [q1, q3]':>40}  wins  verdict")
for metric in manifest["end_to_end"]:
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    a = [d["metrics"][name]["value"] for d in runs["parent"]]
    b = [d["metrics"][name]["value"] for d in runs["change"]]
    if bound <= 0.001:  # an exact metric: every run of both sides must agree
        same = len(set(a + b)) == 1
        ok &= same
        print(f"{name:24} {a[0]:>40.6g} {b[0]:>40.6g}     -  {'exact, equal' if same else 'EXACT METRIC DIFFERS'}")
        continue
    sign = 1.0 if higher else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    ties = sum(1 for x, y in zip(a, b) if x == y)
    ma, mb = statistics.median(a), statistics.median(b)
    (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
    gain, moved = sign * (mb - ma), f"median {(mb - ma) / ma:+.1%}"
    if 10 * wins >= 9 * pairs and gain > a3 - a1:
        verdict = f"better, {moved}"
    elif -gain > bound * abs(ma):
        verdict = f"WORSE than the {bound:.0%} bound, {moved}"
    elif max(a3 - a1, b3 - b1) > bound * abs(ma) and not all(sign * (y - x) >= 0 for x in a for y in b):
        verdict = f"unresolved (spread wider than the bound), {moved}"
    else:
        verdict = f"within the {bound:.0%} bound, {moved}"
    fmt = lambda m, lo, hi: f"{m:.6g} [{lo:.6g}, {hi:.6g}]"
    print(f"{name:24} {fmt(ma, a1, a3):>40} {fmt(mb, b1, b3):>40} {wins:>2}/{pairs - ties:<2} {verdict}")
sys.exit(0 if ok else 1)
PYEOF
