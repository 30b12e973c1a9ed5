#!/usr/bin/env bash
# Run the Criterion micro-benchmark suites and the ablation sweeps,
# accumulating machine-readable results in BENCH_*.json (JSON lines) so the
# perf trajectory of the repo builds up run over run.
#
# Every target is run through `run_target`, which propagates a failing exit
# code and names the target that failed — a broken bench must fail the run,
# not silently skip.
#
# Usage: scripts/bench.sh [output-prefix]
set -euo pipefail
cd "$(dirname "$0")/.."

prefix="${1:-BENCH}"
# Absolute paths: cargo runs bench executables with the package directory
# as their working directory.
criterion_out="$(pwd)/${prefix}_criterion.json"
cache_out="$(pwd)/${prefix}_cache.json"
threads_out="$(pwd)/${prefix}_threads.json"
multigraph_out="$(pwd)/${prefix}_multigraph.json"
recovery_out="$(pwd)/${prefix}_recovery.json"
compress_out="$(pwd)/${prefix}_compress.json"
serve_out="$(pwd)/${prefix}_serve.json"
compact_out="$(pwd)/${prefix}_compact.json"
decode_out="$(pwd)/${prefix}_decode.json"
scrub_out="$(pwd)/${prefix}_scrub.json"

stamp=$(date -u +"%Y-%m-%dT%H:%M:%SZ")
rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

run_target() {
    local label="$1"
    shift
    echo "== ${label}"
    local code=0
    "$@" || code=$?
    if [ "${code}" -ne 0 ]; then
        echo "error: bench target '${label}' failed with exit code ${code}" >&2
        exit "${code}"
    fi
}

echo "# bench run ${stamp} @ ${rev}" >> "${criterion_out}"
for suite in kernels scan decomposition maintenance; do
    run_target "${suite}" \
        env CRITERION_JSON="${criterion_out}" \
        cargo bench -q -p kcore-bench --bench "${suite}"
done

echo "# bench run ${stamp} @ ${rev}" >> "${cache_out}"
run_target ablation_cache \
    cargo run --release -q -p kcore-bench --bin ablation_cache -- --json "${cache_out}"

echo "# bench run ${stamp} @ ${rev}" >> "${threads_out}"
run_target ablation_threads \
    cargo run --release -q -p kcore-bench --bin ablation_threads -- --json "${threads_out}"

echo "# bench run ${stamp} @ ${rev}" >> "${multigraph_out}"
run_target multi_graph \
    cargo run --release -q -p kcore-bench --bin multi_graph -- --json "${multigraph_out}"

echo "# bench run ${stamp} @ ${rev}" >> "${recovery_out}"
run_target recovery \
    cargo run --release -q -p kcore-bench --bin recovery -- --json "${recovery_out}"

# The v1-vs-v3 sweep is also the format's regression gate: the binary exits
# non-zero if v3 ever charges more blocks than v1, or if the R-MAT
# 10%-budget point falls below the 25% reduction bar.
echo "# bench run ${stamp} @ ${rev}" >> "${compress_out}"
run_target ablation_compress \
    cargo run --release -q -p kcore-bench --bin ablation_compress -- --json "${compress_out}"

# Multi-client serving: ops/sec, p99 and fsync counts at journal gather
# window 0 vs 150 µs. The binary is the barrier-sharing regression gate:
# it exits non-zero unless the multi-client point issues fewer fsyncs than
# journaled ops at both windows (and one client exactly one per op).
echo "# bench run ${stamp} @ ${rev}" >> "${serve_out}"
run_target serve_load \
    cargo run --release -q -p kcore-bench --bin serve_load -- --json "${serve_out}"

# Compaction dividend: durable footprint and reopen charge before vs after
# folding buffered edits into a fresh table generation. The binary is the
# compaction regression gate: it exits non-zero unless the compacted reopen
# charges strictly fewer read I/Os and the data dir strictly shrinks.
echo "# bench run ${stamp} @ ${rev}" >> "${compact_out}"
run_target compaction \
    cargo run --release -q -p kcore-bench --bin compaction -- --json "${compact_out}"

# Decode bandwidth: v2 varint vs v3 stream-vbyte in-memory decode rates and
# the readahead-pipelined full scan. The binary is the v3 regression gate:
# it exits non-zero if the dispatched v3 decoder falls below 2x the v2
# scalar rate, if readahead changes any charged counter, or (with >= 2
# cores) if the readahead scan is slower than the synchronous one.
echo "# bench run ${stamp} @ ${rev}" >> "${decode_out}"
run_target decode \
    cargo run --release -q -p kcore-bench --bin decode_bw -- --json "${decode_out}"

# Scrub overhead: the background integrity scrubber's tax on tenant
# latency. The binary is the self-heal regression gate: it exits non-zero
# if scrub-on p99 op latency exceeds 1.10x the scrub-off p99, or if
# scrubbing changes the tenant's charged reads at all (the scrubber must
# be invisible to the cost model).
echo "# bench run ${stamp} @ ${rev}" >> "${scrub_out}"
run_target scrub_overhead \
    cargo run --release -q -p kcore-bench --bin scrub_overhead -- --json "${scrub_out}"

echo
echo "results appended to ${criterion_out}, ${cache_out}, ${threads_out}, ${multigraph_out}, ${recovery_out}, ${compress_out}, ${serve_out}, ${compact_out}, ${decode_out} and ${scrub_out}"
