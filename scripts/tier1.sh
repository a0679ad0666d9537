#!/usr/bin/env bash
# Tier-1 gate: build, tests, then the first-party static analysis and
# the parity-lock model checker (ROADMAP.md "Tier-1 verify" plus the
# csar-analysis passes). Any failing step fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# The analysis passes cover the PR 2 modules too: lint's
# no-unwrap-request-path now includes crates/cluster/src/client.rs, and
# check's suite exercises the pipelined parity-lock scenarios.
cargo run -q -p csar-analysis -- lint
cargo run -q -p csar-analysis -- check
# Perf trajectory: regenerate the barrier-vs-pipelined ablation so
# BENCH_pipeline.json tracks the completion-driven engine from PR 2 on.
cargo run -q --release -p csar-bench --bin figures -- --bench pipeline
# Datapath smoke (PR 3): a scaled-down run of the zero-allocation
# ablation. The allocation audit is exact and hermetic, so the gate is
# hard: steady-state whole-group parity computation must stay at zero
# heap allocations. The wall-clock columns are host-dependent and
# therefore reported, not gated.
# The smoke run writes to a scratch path so it never clobbers the
# committed full-scale BENCH_datapath.json (regenerate that with
# `figures --bench datapath`).
smoke=$(mktemp /tmp/BENCH_datapath_smoke.XXXXXX.json)
trap 'rm -f "$smoke"' EXIT
cargo run -q --release -p csar-bench --bin figures -- --bench datapath --bench-json "$smoke" --scale 0.25
grep -q '"steady_allocs": 0' "$smoke" || {
    echo "tier1: FAIL — steady-state datapath allocations regressed above zero" >&2
    grep '"steady_allocs"' "$smoke" >&2
    exit 1
}
echo "tier1: datapath steady-state allocations: 0 (gate ok)"
# Observability smoke (csar-obs): a scaled-down run of the metrics-on
# vs metrics-off ablation. Both allocation audits (the registry hot
# path and the parity fold with metrics enabled) are exact, so the gate
# is hard: both must stay at zero steady-state allocations. The
# wall-clock overhead column is host-dependent and therefore reported,
# not gated (regenerate the committed full-scale BENCH_obs.json with
# `figures --bench obs`).
obs_smoke=$(mktemp /tmp/BENCH_obs_smoke.XXXXXX.json)
trap 'rm -f "$smoke" "$obs_smoke"' EXIT
cargo run -q --release -p csar-bench --bin figures -- --bench obs --bench-json "$obs_smoke" --scale 0.25
zeroed=$(grep -c '"steady_allocs": 0' "$obs_smoke" || true)
if [ "$zeroed" -ne 2 ]; then
    echo "tier1: FAIL — a steady-state allocation audit regressed above zero" >&2
    grep '"steady_allocs"' "$obs_smoke" >&2
    exit 1
fi
grep '"overhead_pct"' "$obs_smoke" | sed 's/^ */tier1: obs /'
echo "tier1: obs steady-state allocations: 0 (gate ok)"
# Causal-tracing smoke (DESIGN.md §15): a scaled-down run of the
# tracing-on vs tracing-off ablation. The two allocation audits
# (record_trace with tracing disabled and enabled) are exact, so the
# gate is hard: both must stay at zero steady-state allocations. The
# Chrome trace_event export must also round-trip through its own parser
# bit-for-bit (`roundtrip_ok`). The wall-clock overhead column is
# host-dependent and therefore reported, not gated (regenerate the
# committed full-scale BENCH_trace.json with
# `figures --bench trace`).
trace_smoke=$(mktemp /tmp/BENCH_trace_smoke.XXXXXX.json)
trap 'rm -f "$smoke" "$obs_smoke" "$trace_smoke"' EXIT
cargo run -q --release -p csar-bench --bin figures -- --bench trace --bench-json "$trace_smoke" --scale 0.25
zeroed=$(grep -c '"steady_allocs": 0' "$trace_smoke" || true)
if [ "$zeroed" -ne 2 ]; then
    echo "tier1: FAIL — a trace-path steady-state allocation audit regressed above zero" >&2
    grep '"steady_allocs"' "$trace_smoke" >&2
    exit 1
fi
grep -q '"roundtrip_ok": true' "$trace_smoke" || {
    echo "tier1: FAIL — Chrome trace export no longer round-trips" >&2
    exit 1
}
grep '"overhead_pct"' "$trace_smoke" | sed 's/^ */tier1: trace /'
echo "tier1: trace steady-state allocations: 0, Chrome export round-trips (gate ok)"
# Trace exporter end-to-end smoke: the trace binary collects spans from
# a deterministic sim run, validates nesting, writes Chrome trace_event
# JSON and re-parses it; it exits nonzero on any nesting or round-trip
# failure.
chrome_smoke=$(mktemp /tmp/chrome_trace_smoke.XXXXXX.json)
trap 'rm -f "$smoke" "$obs_smoke" "$trace_smoke" "$chrome_smoke"' EXIT
cargo run -q --release -p csar-bench --bin trace -- "$chrome_smoke" --scale 0.1 > /dev/null
grep -q '"traceEvents"' "$chrome_smoke" || {
    echo "tier1: FAIL — trace exporter wrote no traceEvents" >&2
    exit 1
}
echo "tier1: trace exporter: spans nest, Chrome JSON round-trips (gate ok)"
# Live-cluster metrics smoke: the stats binary runs a mixed workload on
# a threaded cluster, scrapes every node through GetStats, and exits
# nonzero unless the merged snapshot parses back bit-for-bit and the
# engine balance invariant (issued == delivered + retried + timeouts +
# abandoned) holds. --json-out exercises the snapshot file path that
# scripts consume.
stats_out=$(mktemp /tmp/stats_snapshot.XXXXXX.json)
trap 'rm -f "$smoke" "$obs_smoke" "$trace_smoke" "$chrome_smoke" "$stats_out"' EXIT
cargo run -q --release -p csar-bench --bin stats -- --json-out "$stats_out" > /dev/null
grep -q '"counters"' "$stats_out" || {
    echo "tier1: FAIL — stats --json-out wrote no counters" >&2
    exit 1
}
echo "tier1: live metrics scrape: snapshot round-trips, engine balanced (gate ok)"
# §6.7 cleaner regressions (group-precision, tail reclaim, lost-update
# race): already part of `cargo test -q` above, re-run here by name so
# a gate failure points straight at the cleaner.
cargo test -q -p csar-cluster --test maintenance > /dev/null
echo "tier1: cleaner regression tests: ok"
