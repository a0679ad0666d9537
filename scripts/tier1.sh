#!/usr/bin/env bash
# Tier-1 gate: build, tests, clippy, then the first-party static analysis and
# the parity-lock model checker (ROADMAP.md "Tier-1 verify" plus the
# csar-analysis passes). Any failing step fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# Lint gate: clippy on every crate and target, warnings are errors.
cargo clippy -q --workspace --all-targets -- -D warnings
# The opt-in microbenchmarks need the bench-ext feature, so the step
# above skips them; lint them too so they cannot rot unseen.
cargo clippy -q -p csar-bench --all-targets --features bench-ext -- -D warnings
# The analysis passes cover the PR 2 modules too: lint's
# no-unwrap-request-path now includes crates/cluster/src/client.rs, and
# check's suite exercises the pipelined parity-lock scenarios.
cargo run -q -p csar-analysis -- lint
cargo run -q -p csar-analysis -- check
# Every file the gates below write goes into one scratch directory,
# removed on exit.
scratch=$(mktemp -d /tmp/tier1.XXXXXX)
trap 'rm -rf "$scratch"' EXIT
# A committed file that is exact and deterministic must be reproduced
# byte for byte by a fresh run: same COMMITTED FRESH.
same() {
    cmp "$2" "$1" || {
        echo "tier1: FAIL — $1 differs from a fresh run" >&2
        diff "$2" "$1" >&2 || true
        exit 1
    }
    echo "tier1: $1 reproduces byte for byte (gate ok)"
}
# Barrier-vs-pipelined ablation: every field is virtual time. Regenerate
# it in place with `figures --bench pipeline` only when a change is
# meant to move it.
cargo run -q --release -p csar-bench --bin figures -- --bench pipeline --bench-json "$scratch/pipeline.json" > /dev/null
same BENCH_pipeline.json "$scratch/pipeline.json"
# Cost ledger: exact requests, bytes, virtual time, metric counters,
# heap allocations and spans per case, plus the allocation audits of
# the parity fold, metric recording and record_trace (each must stay at
# zero steady-state allocations, and every other count must match too).
# Regenerate it with `figures --bench cost` when a change is meant to
# move a count, or when the Rust toolchain changes.
cargo run -q --release -p csar-bench --bin figures -- --bench cost --bench-json "$scratch/cost.json" > /dev/null
same BENCH_cost.json "$scratch/cost.json"
# Every figure and table of the paper's evaluation is virtual time, so
# a fresh `figures all --json` must reproduce results/figures_full.json.
# Only the JSON is compared: figures_full.txt ends with the output path.
# Regenerate both with the command in results/README.md only when a
# change is meant to move them.
cargo run -q --release -p csar-bench --bin figures -- all --json "$scratch/figures_full.json" > /dev/null
same results/figures_full.json "$scratch/figures_full.json"
# Trace exporter end-to-end smoke: the trace binary collects spans from
# a deterministic sim run, validates nesting, writes Chrome trace_event
# JSON and re-parses it; it exits nonzero on any nesting or round-trip
# failure.
cargo run -q --release -p csar-bench --bin trace -- "$scratch/chrome_trace.json" --scale 0.1 > /dev/null
grep -q '"traceEvents"' "$scratch/chrome_trace.json" || {
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
cargo run -q --release -p csar-bench --bin stats -- --json-out "$scratch/stats.json" > /dev/null
grep -q '"counters"' "$scratch/stats.json" || {
    echo "tier1: FAIL — stats --json-out wrote no counters" >&2
    exit 1
}
echo "tier1: live metrics scrape: snapshot round-trips, engine balanced (gate ok)"
# §6.7 cleaner regressions (group-precision, tail reclaim, lost-update
# race): already part of `cargo test -q` above, re-run here by name so
# a gate failure points straight at the cleaner.
cargo test -q -p csar-cluster --test maintenance > /dev/null
echo "tier1: cleaner regression tests: ok"
