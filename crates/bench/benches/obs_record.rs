//! Cost of one metric record on a warm registry: a counter `inc` and
//! a histogram `observe`. `BENCH_cost.json` counts the records per op
//! exactly, so metric cost per op is ns per record × records per op
//! (EXPERIMENTS.md, "BENCH_cost").

use csar_bench::crit as criterion;
use criterion::{criterion_group, criterion_main, Criterion};
use csar_obs::{Ctr, Hist, MetricsRegistry};
use std::hint::black_box;

fn bench_records(c: &mut Criterion) {
    let reg = MetricsRegistry::new();
    reg.set_enabled(true);
    let mut group = c.benchmark_group("obs_record");
    group.bench_function("inc", |b| b.iter(|| reg.inc(black_box(Ctr::SrvRequests))));
    group.bench_function("observe", |b| b.iter(|| reg.observe(black_box(Hist::OpWriteNs), black_box(123_456))));
    group.finish();
}

criterion_group!(benches, bench_records);
criterion_main!(benches);
