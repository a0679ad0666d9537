//! Page-cache model throughput: block-granular LRU classification is in
//! the simulator's innermost loop (every byte of every simulated write
//! passes through it), so it has to stay cheap.

use csar_bench::crit as criterion;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use csar_store::{CacheModel, SplitMix64, StreamKind};
use std::hint::black_box;

fn bench_write_classification(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_write_range");
    for mb in [1usize, 16] {
        let bytes = (mb as u64) << 20;
        group.throughput(Throughput::Bytes(bytes));
        group.bench_with_input(BenchmarkId::from_parameter(mb), &bytes, |b, &n| {
            let mut cache = CacheModel::new(4096, 256 << 20);
            b.iter(|| {
                cache.write_range((1, StreamKind::Data), black_box(0), n);
            });
        });
    }
    group.finish();
}

fn bench_read_hits_and_misses(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_read_range");
    group.throughput(Throughput::Bytes(1 << 20));
    group.bench_function("all_hits_1mb", |b| {
        let mut cache = CacheModel::new(4096, 256 << 20);
        cache.write_range((1, StreamKind::Data), 0, 1 << 20);
        b.iter(|| black_box(cache.read_range((1, StreamKind::Data), 0, 1 << 20)));
    });
    group.bench_function("all_misses_under_eviction_1mb", |b| {
        // Cache smaller than the touched range: every read evicts.
        let mut cache = CacheModel::new(4096, 512 << 10);
        let mut off = 0u64;
        b.iter(|| {
            let acc = cache.read_range((1, StreamKind::Data), off, 1 << 20);
            off += 1 << 20;
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_server_shaped_touches(c: &mut Criterion) {
    // The shape `IoServer::classify_read` produces: one-block reads, in
    // random order, of a large resident set — 128 Ki blocks (512 MiB).
    const BLOCKS: u64 = 128 << 10;
    const TOUCHES: u64 = 1024;
    let mut group = c.benchmark_group("cache_block_touch");
    group.throughput(Throughput::Elements(TOUCHES));
    group.bench_function("random_hits_128k_resident", |b| {
        let mut cache = CacheModel::new(4096, BLOCKS * 4096);
        cache.write_range((1, StreamKind::Data), 0, BLOCKS * 4096);
        let mut rng = SplitMix64::new(7);
        let blocks: Vec<u64> = (0..TOUCHES).map(|_| rng.gen_range(0..BLOCKS)).collect();
        b.iter(|| {
            for &blk in &blocks {
                black_box(cache.read_range((1, StreamKind::Data), blk * 4096, 4096));
            }
        });
    });
    group.finish();
}

fn bench_eviction(c: &mut Criterion) {
    c.bench_function("evict_file_with_100k_blocks", |b| {
        b.iter_batched(
            || {
                let mut cache = CacheModel::new(4096, 1 << 30);
                cache.write_range((7, StreamKind::Data), 0, 100_000 * 4096);
                cache
            },
            |mut cache| {
                cache.evict_file(7);
                black_box(cache.resident_blocks())
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_write_classification,
    bench_read_hits_and_misses,
    bench_server_shaped_touches,
    bench_eviction
);
criterion_main!(benches);
