#!/usr/bin/env bash
# The benchmark's one command.
#
#   bash benchmark/run.sh
#       build, then run all four workloads untraced and traced, merge the
#       results into benchmark/out/results.json and print every metric.
#       SEED (default 11) and SECONDS_PER_RUN (default: run_seconds of
#       BENCHMARK.json) override the inputs.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       build, then do that one run; its last line of output is the summary
#       object the driver reads.
#
#   bash benchmark/run.sh compare <a.json> <b.json>
#       judge results b against baseline a.
#
# The build is offline and shares the repository's target directory unless
# CARGO_TARGET_DIR says otherwise. Exits non-zero when the build fails (as
# it does where the crates are missing), a check fails, or a metric
# regressed.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --locked \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bench="$target/release/bench"

if [ $# -gt 0 ]; then
    exec "$bench" "$@"
fi

seed="${SEED:-11}"
seconds=()
if [ -n "${SECONDS_PER_RUN:-}" ]; then
    seconds=(--seconds "$SECONDS_PER_RUN")
fi
rm -rf benchmark/out
status=0
for trace in 0 1; do
    for workload in oltp-steady oltp-pooled-100k elastic-diurnal rebalance-replicated; do
        "$bench" --workload "$workload" --seed "$seed" "${seconds[@]}" --trace "$trace" \
            >/dev/null || status=1
    done
done
"$bench" merge benchmark/out || status=1
exit "$status"
