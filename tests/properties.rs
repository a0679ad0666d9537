//! End-to-end property tests on the live cluster: randomized write
//! sequences against a flat reference file, with parity consistency and
//! degraded-read equivalence checked after every sequence. Deterministic
//! seeded sweeps (ex-proptest).

use csar::cluster::Cluster;
use csar::core::proto::Scheme;
use csar::store::SplitMix64;

#[derive(Debug, Clone)]
struct WriteOp {
    off: u64,
    data: Vec<u8>,
}

/// Draw 1–11 writes with offsets below `max_off` and lengths below
/// `max_len`, each filled with a seeded byte pattern.
fn draw_ops(rng: &mut SplitMix64, max_off: u64, max_len: usize) -> Vec<WriteOp> {
    let n = rng.gen_usize(1..12);
    (0..n)
        .map(|_| {
            let off = rng.gen_range(0..max_off);
            let len = rng.gen_usize(1..max_len);
            let seed = rng.next_u64() as u8;
            WriteOp {
                off,
                data: (0..len).map(|i| (i as u8).wrapping_mul(seed).wrapping_add(seed)).collect(),
            }
        })
        .collect()
}

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.gen_usize(0..items.len())]
}

/// Scrub a file: every parity group up to its size holds real data
/// that matches its parity, and every RAID1 mirror block its primary.
fn assert_scrub_clean(file: &csar::cluster::File) {
    let meta = file.meta();
    let groups = if meta.scheme.uses_parity() { meta.size.div_ceil(meta.layout.group_width_bytes()) } else { 0 };
    let report = file.scrub().unwrap();
    assert!(report.is_clean(), "{:?}: {report:?}", meta.scheme);
    assert_eq!(report.groups_checked, groups, "{:?}: every group holds real data", meta.scheme);
}

/// Any sequence of overlapping writes reads back like a flat file, for
/// every scheme, and parity always matches the in-place data.
#[test]
fn random_writes_match_flat_reference() {
    let mut rng = SplitMix64::new(0x9809_0001);
    for case in 0..24 {
        let scheme = pick(&mut rng, &[Scheme::Raid0, Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid]);
        let servers = rng.gen_range(2..6) as u32;
        let unit = pick(&mut rng, &[512u64, 1024, 4096]);
        let ops = draw_ops(&mut rng, 20_000, 6_000);
        let cluster = Cluster::spawn(servers, Default::default());
        let client = cluster.client();
        let file = client.create("prop", scheme, unit).unwrap();
        let mut reference = vec![0u8; 30_000];
        for op in &ops {
            file.write_at(op.off, &op.data).unwrap();
            let end = op.off as usize + op.data.len();
            reference[op.off as usize..end].copy_from_slice(&op.data);
        }
        let size = file.size();
        assert_eq!(
            size,
            ops.iter().map(|o| o.off + o.data.len() as u64).max().unwrap(),
            "case {case}"
        );
        let got = file.read_at(0, size).unwrap();
        assert_eq!(&got[..], &reference[..size as usize], "case {case} ({scheme:?})");
        assert_scrub_clean(&file);
        cluster.shutdown();
    }
}

/// With redundancy, the same holds while ANY single server is down.
#[test]
fn random_writes_survive_any_single_failure() {
    let mut rng = SplitMix64::new(0x9809_0002);
    for case in 0..24 {
        let scheme = pick(&mut rng, &[Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid]);
        let servers = rng.gen_range(2..6) as u32;
        let ops = draw_ops(&mut rng, 10_000, 4_000);
        let cluster = Cluster::spawn(servers, Default::default());
        let client = cluster.client();
        let file = client.create("prop", scheme, 1024).unwrap();
        let mut reference = vec![0u8; 16_000];
        for op in &ops {
            file.write_at(op.off, &op.data).unwrap();
            let end = op.off as usize + op.data.len();
            reference[op.off as usize..end].copy_from_slice(&op.data);
        }
        let size = file.size();
        for kill in 0..servers {
            cluster.fail_server(kill);
            let got = file.read_at(0, size).unwrap();
            assert_eq!(&got[..], &reference[..size as usize], "case {case}: server {kill} down");
            cluster.restore_server(kill);
        }
        cluster.shutdown();
    }
}

/// Rebuild after random writes restores full redundancy: contents
/// survive the rebuild AND a subsequent different failure.
#[test]
fn rebuild_restores_redundancy() {
    let mut rng = SplitMix64::new(0x9809_0003);
    for case in 0..24 {
        let scheme = pick(&mut rng, &[Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid]);
        let ops = draw_ops(&mut rng, 8_000, 3_000);
        let kill = rng.gen_range(0..4) as u32;
        let servers = 4u32;
        let cluster = Cluster::spawn(servers, Default::default());
        let client = cluster.client();
        let file = client.create("prop", scheme, 1024).unwrap();
        let mut reference = vec![0u8; 12_000];
        for op in &ops {
            file.write_at(op.off, &op.data).unwrap();
            let end = op.off as usize + op.data.len();
            reference[op.off as usize..end].copy_from_slice(&op.data);
        }
        let size = file.size();
        cluster.fail_server(kill);
        cluster.rebuild_server(kill).unwrap();
        let got = file.read_at(0, size).unwrap();
        assert_eq!(&got[..], &reference[..size as usize], "case {case}");
        // A different single failure is survivable post-rebuild.
        let other = (kill + 1) % servers;
        cluster.fail_server(other);
        let got = file.read_at(0, size).unwrap();
        assert_eq!(&got[..], &reference[..size as usize], "case {case}");
        cluster.shutdown();
    }
}

/// The §6.7 compaction never changes file contents and never increases
/// overflow storage.
#[test]
fn compaction_preserves_contents_and_reclaims() {
    let mut rng = SplitMix64::new(0x9809_0004);
    for case in 0..24 {
        let ops = draw_ops(&mut rng, 6_000, 2_000);
        let cluster = Cluster::spawn(4, Default::default());
        let client = cluster.client();
        let file = client.create("prop", Scheme::Hybrid, 1024).unwrap();
        let mut reference = vec![0u8; 8_000];
        for op in &ops {
            file.write_at(op.off, &op.data).unwrap();
            let end = op.off as usize + op.data.len();
            reference[op.off as usize..end].copy_from_slice(&op.data);
        }
        let size = file.size();
        let before = file.storage_report().unwrap().aggregate();
        file.compact_overflow().unwrap();
        let after = file.storage_report().unwrap().aggregate();
        assert!(after.overflow <= before.overflow, "case {case}");
        assert!(after.overflow_mirror <= before.overflow_mirror, "case {case}");
        assert_eq!(after.data, before.data, "case {case}");
        assert_eq!(after.parity, before.parity, "case {case}");
        let got = file.read_at(0, size).unwrap();
        assert_eq!(&got[..], &reference[..size as usize], "case {case}");
        cluster.shutdown();
    }
}

/// Degraded writes: RAID1 and Hybrid keep accepting arbitrary writes
/// with a server down; contents are correct via degraded reads and
/// after rebuild.
#[test]
fn degraded_writes_roundtrip() {
    let mut rng = SplitMix64::new(0x9809_0005);
    for case in 0..16 {
        let scheme = pick(&mut rng, &[Scheme::Raid1, Scheme::Hybrid]);
        let before = draw_ops(&mut rng, 8_000, 3_000);
        let during = draw_ops(&mut rng, 8_000, 3_000);
        let kill = rng.gen_range(0..4) as u32;
        let cluster = Cluster::spawn(4, Default::default());
        let client = cluster.client();
        let file = client.create("prop", scheme, 1024).unwrap();
        let mut reference = vec![0u8; 12_000];
        for op in &before {
            file.write_at(op.off, &op.data).unwrap();
            reference[op.off as usize..op.off as usize + op.data.len()].copy_from_slice(&op.data);
        }
        cluster.fail_server(kill);
        for op in &during {
            file.write_at(op.off, &op.data).unwrap();
            reference[op.off as usize..op.off as usize + op.data.len()].copy_from_slice(&op.data);
        }
        let size = file.size();
        // Degraded read sees everything.
        let got = file.read_at(0, size).unwrap();
        assert_eq!(&got[..], &reference[..size as usize], "case {case}");
        // Rebuild, verify healthy, then verify under a different failure
        // (full redundancy restored despite the degraded-mode writes).
        cluster.rebuild_server(kill).unwrap();
        let got = file.read_at(0, size).unwrap();
        assert_eq!(&got[..], &reference[..size as usize], "case {case}");
        assert_scrub_clean(&file);
        let other = (kill + 2) % 4;
        cluster.fail_server(other);
        let got = file.read_at(0, size).unwrap();
        assert_eq!(&got[..], &reference[..size as usize], "case {case}");
        cluster.shutdown();
    }
}
