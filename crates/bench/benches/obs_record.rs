//! Cost of one instrumentation record on a warm registry: a counter
//! `inc`, a histogram `observe`, and `record_trace` with tracing off
//! (the request-path default) and on. `BENCH_cost.json` counts the
//! records per op exactly, so instrumentation cost per op is ns per
//! record × records per op (EXPERIMENTS.md, "BENCH_cost").

use csar_bench::crit as criterion;
use criterion::{criterion_group, criterion_main, Criterion};
use csar_obs::trace::{Phase, SpanId, TraceId, TraceSpan};
use csar_obs::{Ctr, Hist, MetricsRegistry};
use std::hint::black_box;

fn bench_records(c: &mut Criterion) {
    let reg = MetricsRegistry::new();
    reg.set_enabled(true);
    let mut group = c.benchmark_group("obs_record");
    group.bench_function("inc", |b| b.iter(|| reg.inc(black_box(Ctr::SrvRequests))));
    group.bench_function("observe", |b| b.iter(|| reg.observe(black_box(Hist::OpWriteNs), black_box(123_456))));
    let span = TraceSpan {
        trace: TraceId(7),
        span: SpanId(9),
        parent: SpanId(1),
        phase: Phase::Service,
        start_ns: 1_000,
        dur_ns: 250,
        aux: 3,
    };
    for (name, on) in [("record_trace_off", false), ("record_trace_on", true)] {
        reg.set_tracing(on);
        group.bench_function(name, |b| b.iter(|| reg.record_trace(black_box(&span))));
    }
    group.finish();
}

criterion_group!(benches, bench_records);
criterion_main!(benches);
