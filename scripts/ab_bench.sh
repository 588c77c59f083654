#!/usr/bin/env bash
# A/B of the perf spine against a base commit, by the rule of the
# choosing-metrics guide (section 8): alternating pairs, order flipped each
# pair, medians and quartiles per side, pairs won, and a verdict per metric.
#
#   scripts/ab_bench.sh <base-ref> [--pairs N] [--seconds S] [--workload W]
#
# <base-ref> is exported (git archive) into target/ab_bench/base, so neither
# the index, the working tree nor .git's worktree list is touched; the head
# side is the working tree as it stands.  Both sides are built and run with the
# command in the *head's* BENCHMARK.json (a change that claims a gain may not
# edit the benchmark, so it is the base's too); pair i runs seed i on both
# sides.  Defaults: 10 pairs of BENCHMARK.json's run_seconds, every workload.
# Prints a table; exits non-zero only when a run itself failed.
set -euo pipefail

usage() {
    sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
}

[ $# -ge 1 ] || usage
BASE_REF=$1
shift
PAIRS=10
SECONDS_PER_RUN=
WORKLOADS=
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) PAIRS=$2 ;;
        --seconds) SECONDS_PER_RUN=$2 ;;
        --workload) WORKLOADS="$WORKLOADS $2" ;;
        *) usage ;;
    esac
    shift 2
done

HEAD_DIR=$(git rev-parse --show-toplevel)
cd "$HEAD_DIR"
BASE_SHA=$(git rev-parse --verify "$BASE_REF^{commit}")
OUT_DIR=$HEAD_DIR/target/ab_bench
BASE_DIR=$OUT_DIR/base
RUNS=$OUT_DIR/runs.jsonl

# The benchmark's own declaration: command, run length, workloads.
read_benchmark() {
    python3 - "$HEAD_DIR/BENCHMARK.json" "$1" <<'PY'
import json, sys
spec = json.load(open(sys.argv[1]))
what = sys.argv[2]
if what == "command":
    print("\n".join(spec["command"]))
elif what == "seconds":
    print(spec["run_seconds"])
else:
    print(" ".join(w["name"] for w in spec["workloads"]))
PY
}
mapfile -t COMMAND < <(read_benchmark command)
[ -n "$SECONDS_PER_RUN" ] || SECONDS_PER_RUN=$(read_benchmark seconds)
[ -n "$WORKLOADS" ] || WORKLOADS=$(read_benchmark workloads)

# Export the base, keeping its build directory from a previous run when it is
# the same commit (the export is a few MB; the build is minutes).
if [ "$(cat "$BASE_DIR/.ab_bench_sha" 2>/dev/null)" != "$BASE_SHA" ]; then
    rm -rf "$BASE_DIR"
    mkdir -p "$BASE_DIR"
    git archive "$BASE_SHA" | tar -x -C "$BASE_DIR"
    echo "$BASE_SHA" > "$BASE_DIR/.ab_bench_sha"
fi

# `cargo run ... --` with `run` swapped for `build` and the trailing `--`
# dropped: the same profile, flags and manifest the runs use.
BUILD=()
for word in "${COMMAND[@]}"; do
    case $word in
        run) BUILD+=(build) ;;
        --) ;;
        *) BUILD+=("$word") ;;
    esac
done
echo "ab_bench: base $BASE_SHA ($BASE_REF), head $(git rev-parse --short HEAD)$(git diff --quiet HEAD -- || echo '+dirty')"
echo "ab_bench: $PAIRS pairs x ${SECONDS_PER_RUN}s, workloads:$(printf ' %s' $WORKLOADS)"
(cd "$BASE_DIR" && "${BUILD[@]}")
(cd "$HEAD_DIR" && "${BUILD[@]}")

run_side() { # side dir workload seed
    local line
    line=$(cd "$2" && "${COMMAND[@]}" --workload "$3" --seed "$4" \
        --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -n 1)
    case $line in
        '{"correct"'*) printf '{"side":"%s","workload":"%s","pair":%s,"result":%s}\n' \
            "$1" "$3" "$4" "$line" >> "$RUNS" ;;
        *) echo "ab_bench: $1 run of $3 (seed $4) printed no result line" >&2; exit 1 ;;
    esac
}

mkdir -p "$OUT_DIR"
: > "$RUNS"
for workload in $WORKLOADS; do
    for pair in $(seq 1 "$PAIRS"); do
        if [ $((pair % 2)) -eq 1 ]; then
            run_side base "$BASE_DIR" "$workload" "$pair"
            run_side head "$HEAD_DIR" "$workload" "$pair"
        else
            run_side head "$HEAD_DIR" "$workload" "$pair"
            run_side base "$BASE_DIR" "$workload" "$pair"
        fi
        printf '.'
    done
    echo " $workload"
done

python3 - "$HEAD_DIR/BENCHMARK.json" "$RUNS" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q1, q2, q3


print()
print(f"{'workload':<13} {'metric':<15} {'base median':>12} {'base IQR':>10} "
      f"{'head median':>12} {'head IQR':>10} {'change':>8} {'won':>6}  verdict")
for workload in dict.fromkeys(r["workload"] for r in runs):
    sides = {}
    for r in runs:
        if r["workload"] == workload:
            sides.setdefault(r["side"], {})[r["pair"]] = r["result"]
    pairs = sorted(set(sides["base"]) & set(sides["head"]))
    for metric in spec["end_to_end"]:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        base = [sides["base"][p]["metrics"][name]["value"] for p in pairs]
        head = [sides["head"][p]["metrics"][name]["value"] for p in pairs]
        better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
        won = sum(better(h, b) for h, b in zip(head, base))
        bq1, bmed, bq3 = quartiles(base)
        hq1, hmed, hq3 = quartiles(head)
        change = (hmed - bmed) / bmed if bmed else 0.0
        worse_by = change if lower else -change
        spread = max(bq3 - bq1, hq3 - hq1) / abs(bmed) if bmed else 0.0
        all_better = all(better(h, b) for h in head for b in base)
        # Section 8: a gain needs nine tenths of all pairs (ties count for
        # neither side) and medians further apart than the base's own IQR.
        if won >= 0.9 * len(pairs) and better(hmed, bmed) and abs(hmed - bmed) > bq3 - bq1:
            verdict = "gain"
        elif worse_by > bound:
            verdict = "WORSE (past bound)"
        elif spread > bound and not all_better:
            verdict = "unresolved (spread > bound)"
        else:
            verdict = "within bound"
        print(f"{workload:<13} {name:<15} {bmed:>12.5g} {bq3 - bq1:>10.3g} "
              f"{hmed:>12.5g} {hq3 - hq1:>10.3g} {change:>+8.1%} {won:>3}/{len(pairs):<2}  {verdict}")
    failed = {side: sum(r["failed"] for r in results.values()) for side, results in sides.items()}
    print(f"{workload:<13} failed operations: base {failed['base']}, head {failed['head']}")
PY
