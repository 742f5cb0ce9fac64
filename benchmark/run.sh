#!/usr/bin/env bash
# One complete set of runs: build gbjbench, run the five workloads and
# then the five traces (one process each, in sequence — the box has two
# cores and the engine may use both), merge everything into one result
# file, print every metric by name with its unit, and fail if any result
# check failed.
#
#   benchmark/run.sh [seed] [out-dir]
#
# Two result files of one commit and seed must agree under
#   target/release/gbjbench compare <a.json> <b.json>
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
out="${2:-benchmark/out}"
workloads="serve_hot analytic_scan plan_cold mixed_rw scaleout"

cargo build --release --manifest-path benchmark/Cargo.toml --target-dir target
bin=target/release/gbjbench
mkdir -p "$out"

status=0
files=()
for mode in run trace; do
    for w in $workloads; do
        echo "gbjbench $mode --workload $w --seed $seed" >&2
        # The per-process report is printed again by `merge` below.
        "$bin" "$mode" --workload "$w" --seed "$seed" --out "$out" >"$out/$mode-$w.log" || status=$?
        case $mode in
            run) files+=("$out/result-$w.json") ;;
            trace) files+=("$out/trace-$w.json") ;;
        esac
    done
done

"$bin" merge --out "$out/gbjbench-seed$seed.json" "${files[@]}" || status=$?
if [ "$status" -ne 0 ]; then
    echo "gbjbench: a run or a result check FAILED (exit $status); logs in $out/" >&2
fi
exit "$status"
