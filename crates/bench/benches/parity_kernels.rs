//! Parity microbenchmarks: the `xor_into` kernel across block sizes,
//! and whole-group `parity_of` / `reconstruct`.
//!
//! The paper's Swift/RAID lesson (§3) — word-at-a-time parity beats
//! byte-at-a-time — no longer shows on current compilers, which
//! vectorise either loop; see EXPERIMENTS.md for the measured numbers.

use csar_bench::crit as criterion;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use csar_parity::{parity_of, reconstruct, xor_into};
use std::hint::black_box;

fn buffers(len: usize) -> (Vec<u8>, Vec<u8>) {
    let a: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
    let b: Vec<u8> = (0..len).map(|i| (i * 17 + 5) as u8).collect();
    (a, b)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("xor_kernels");
    for size in [4 * 1024usize, 64 * 1024, 1 << 20, 8 << 20] {
        group.throughput(Throughput::Bytes(size as u64));
        let (base, src) = buffers(size);
        group.bench_with_input(BenchmarkId::new("xor_into", size), &size, |bch, _| {
            let mut dst = base.clone();
            bch.iter(|| xor_into(black_box(&mut dst), black_box(&src)));
        });
    }
    group.finish();
}

fn bench_group_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("parity_group_ops");
    // A 6-server CSAR group: five 64 KB data blocks.
    let blocks: Vec<Vec<u8>> = (0..5u8)
        .map(|k| (0..64 * 1024).map(|i| (i as u8).wrapping_mul(k + 1)).collect())
        .collect();
    let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
    group.throughput(Throughput::Bytes(5 * 64 * 1024));
    group.bench_function("parity_of_5x64k", |bch| {
        bch.iter(|| parity_of(black_box(&refs)));
    });
    let parity = parity_of(&refs);
    let survivors: Vec<&[u8]> = std::iter::once(parity.as_slice())
        .chain(refs.iter().skip(1).copied())
        .collect();
    group.bench_function("reconstruct_5x64k", |bch| {
        bch.iter(|| reconstruct(black_box(&survivors)));
    });
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_group_ops);
criterion_main!(benches);
