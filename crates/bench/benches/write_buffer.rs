//! The §5.2 write buffer: throughput of accumulating network chunks into
//! block-aligned flushes, across the chunk sizes non-blocking receives
//! actually deliver.

use csar_bench::crit as criterion;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use csar_store::{Payload, WriteBuffer};
use std::hint::black_box;

fn bench_feed(c: &mut Criterion) {
    let mut group = c.benchmark_group("write_buffer_feed");
    let total = 1u64 << 20; // one 1 MB transfer
    for chunk in [1usize << 9, 1 << 12, 1 << 16] {
        group.throughput(Throughput::Bytes(total));
        let data = vec![7u8; chunk];
        group.bench_with_input(BenchmarkId::from_parameter(chunk), &chunk, |b, _| {
            b.iter(|| {
                let mut wb = WriteBuffer::new(4096, 37, total);
                let mut flushes = 0usize;
                let mut left = total;
                while left > 0 {
                    let take = (chunk as u64).min(left) as usize;
                    flushes += wb
                        .feed(Payload::from_vec(data[..take].to_vec()))
                        .len();
                    left -= take as u64;
                }
                black_box(flushes)
            });
        });
    }
    group.finish();
}

fn bench_edge_blocks(c: &mut Criterion) {
    c.bench_function("partial_edge_blocks_x1000", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..1000u64 {
                acc += WriteBuffer::partial_edge_blocks(4096, black_box(i * 777), 100_000).count();
            }
            acc
        });
    });
}

criterion_group!(benches, bench_feed, bench_edge_blocks);
criterion_main!(benches);
