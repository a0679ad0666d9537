//! Extension experiments beyond the paper's evaluation.
//!
//! The paper states a long-term goal ("making \[PVFS\] tolerant of single
//! disk failures") and a proposed optimization (§6.7's background
//! overflow reorganizer) without measuring either. These experiments
//! quantify both, plus the stripe-unit sensitivity Table 2 only samples
//! at two points:
//!
//! * [`degraded_reads`] — read bandwidth with one failed server vs.
//!   healthy, per scheme (mirror fetch vs. parity reconstruction);
//! * [`stripe_unit_sweep`] — Hybrid write bandwidth and storage
//!   expansion across stripe units for a FLASH-like small/medium mix;
//! * [`rebuild_cost`] — bytes moved to rebuild a failed server from
//!   redundancy, per scheme, on the live cluster.

use crate::figures::FigOpts;
use csar_cluster::Cluster;
use csar_core::proto::Scheme;
use csar_sim::{HwProfile, Op, SimCluster};
use csar_workloads::flash;

/// Degraded vs. healthy read bandwidth (MB/s), per scheme.
pub struct DegradedRow {
    pub scheme: &'static str,
    pub healthy_mbps: f64,
    pub degraded_mbps: f64,
}

/// Extension 1: read a striped file sequentially at 4 MB granularity,
/// healthy and then with one server failed. RAID1 pays one extra hop to
/// the mirror; RAID5/Hybrid reconstruct every lost block from n−1 peers
/// and the parity server.
pub fn degraded_reads(opts: &FigOpts) -> Vec<DegradedRow> {
    let profile = opts.profile(HwProfile::osc_itanium());
    let servers = 6u32;
    let unit = 64 * 1024u64;
    let total = opts.bytes(256 << 20);
    [Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid]
        .iter()
        .map(|&scheme| {
            let mut sim = SimCluster::new(profile, servers, 1);
            let f = sim.create_file("x", scheme, unit);
            let chunk = 4u64 << 20;
            let writes: Vec<Op> =
                (0..total / chunk).map(|i| Op::Write { file: f, off: i * chunk, len: chunk }).collect();
            sim.run_phase(vec![(0, writes)]);
            let reads: Vec<Op> =
                (0..total / chunk).map(|i| Op::Read { file: f, off: i * chunk, len: chunk }).collect();
            let healthy = sim.run_phase(vec![(0, reads.clone())]).read_mbps();
            sim.fail_server(1);
            let degraded = sim.run_phase(vec![(0, reads)]).read_mbps();
            DegradedRow { scheme: scheme.label(), healthy_mbps: healthy, degraded_mbps: degraded }
        })
        .collect()
}

/// One stripe-unit sweep point for the Hybrid scheme.
pub struct SweepRow {
    pub unit: u64,
    pub write_mbps: f64,
    /// Total stored bytes / logical file bytes. (Under Hybrid the
    /// primary copy of a partially-written block lives in the overflow
    /// region, so the denominator must be the logical size, not the
    /// in-place data stream.)
    pub expansion: f64,
    /// Fraction of primary-copy bytes living in overflow regions rather
    /// than in place.
    pub overflow_fraction: f64,
}

/// Extension 2: Hybrid's unit sensitivity under a FLASH-like mix.
/// Small units turn medium writes into full groups (parity path, low
/// overhead); large units push everything through the mirrored overflow
/// path and waste slot padding — generalizing Table 2's 16K/64K pair.
pub fn stripe_unit_sweep(opts: &FigOpts) -> Vec<SweepRow> {
    let profile = opts.profile(HwProfile::osc_itanium());
    let servers = 6u32;
    let w = flash::workload(0, 4, 1);
    [4u64 << 10, 16 << 10, 64 << 10, 256 << 10]
        .iter()
        .map(|&unit| {
            let r = crate::harness::run_fresh(profile, servers, Scheme::Hybrid, unit, &[], &w);
            let agg = r.storage.aggregate();
            let logical = w.bytes_written() as f64;
            SweepRow {
                unit,
                write_mbps: r.write_mbps,
                expansion: agg.total() as f64 / logical,
                overflow_fraction: agg.overflow as f64 / (agg.data + agg.overflow).max(1) as f64,
            }
        })
        .collect()
}

/// One write-size sweep point: bandwidth per scheme.
pub struct SizeRow {
    pub write_size: u64,
    /// `(scheme label, MB/s)`.
    pub mbps: Vec<(&'static str, f64)>,
}

impl SizeRow {
    /// Bandwidth of one scheme.
    pub fn of(&self, label: &str) -> f64 {
        self.mbps.iter().find(|(l, _)| *l == label).map(|(_, v)| *v).expect("scheme row")
    }
}

/// The paper's headline claim, swept: "our hybrid scheme consistently
/// achieves the best of two worlds — RAID1 performance on small writes,
/// and RAID5 efficiency on large writes" (abstract), and §2's goal to
/// "improve bandwidth for the whole range of access sizes". A single
/// client rewrites an existing file at every access size from one block
/// to many groups; Hybrid should track whichever of RAID1/RAID5 wins at
/// each size.
pub fn write_size_sweep(opts: &FigOpts) -> Vec<SizeRow> {
    let profile = opts.profile(HwProfile::osc_itanium());
    let servers = 6u32;
    let unit = 64 * 1024u64;
    let schemes = [Scheme::Raid0, Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid];
    // 16 KB (sub-block) up to 16 MB (dozens of groups).
    [16u64 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20]
        .iter()
        .map(|&size| {
            let total = opts.bytes((128u64 << 20).max(size * 8));
            let count = (total / size).max(4);
            let mbps = schemes
                .iter()
                .map(|&scheme| {
                    let mut sim = SimCluster::new(profile, servers, 1);
                    let f = sim.create_file("s", scheme, unit);
                    // Pre-create the file so RMW paths see old data
                    // (cached), like the paper's small-write setup.
                    let pre: Vec<Op> = (0..count)
                        .map(|i| Op::Write { file: f, off: i * size, len: size })
                        .collect();
                    sim.run_phase(vec![(0, pre.clone())]);
                    let stats = sim.run_phase(vec![(0, pre)]);
                    (scheme.label(), stats.write_mbps())
                })
                .collect();
            SizeRow { write_size: size, mbps }
        })
        .collect()
}

/// Rebuild cost for one scheme on the live cluster.
pub struct RebuildRow {
    pub scheme: &'static str,
    /// Logical file bytes.
    pub file_bytes: u64,
    /// Bytes written onto the replacement server.
    pub restored_bytes: u64,
}

/// Extension 3: bytes moved to rebuild a failed server, measured on the
/// live cluster (the paper's fault-tolerance goal, quantified). RAID1
/// restores copies; RAID5/Hybrid reconstruct via full-group XOR; Hybrid
/// additionally replays overflow logs.
pub fn rebuild_cost(opts: &FigOpts) -> Vec<RebuildRow> {
    let len = opts.bytes(16 << 20);
    [Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid]
        .iter()
        .map(|&scheme| {
            let cluster = Cluster::spawn(4, Default::default());
            let client = cluster.client();
            let f = client.create("r", scheme, 64 * 1024).unwrap();
            f.write_payload(0, csar_store::Payload::Phantom(len)).unwrap();
            // Some partials so Hybrid has overflow state to restore.
            f.write_payload(1234, csar_store::Payload::Phantom(40_000)).unwrap();
            cluster.fail_server(2);
            let before = cluster.with_server(2, |s| s.stats.bytes_stored);
            cluster.rebuild_server(2).unwrap();
            let after = cluster.with_server(2, |s| s.stats.bytes_stored);
            let row = RebuildRow {
                scheme: scheme.label(),
                file_bytes: len,
                restored_bytes: after - before,
            };
            cluster.shutdown();
            row
        })
        .collect()
}

/// One §5.2 ablation row.
pub struct BufferingRow {
    pub scheme: &'static str,
    /// overwrite / initial bandwidth with write buffering ON (default).
    pub buffered: f64,
    /// ... with write buffering OFF (the non-blocking-receive pathology).
    pub unbuffered: f64,
    /// ... with partial block writes padded (the paper's diagnostic).
    pub padded: f64,
}

/// Extension: the §5.2 ablation. The paper's claims, quantified:
/// write buffering rescues overwrite bandwidth for every scheme;
/// padding partial block writes makes overwrite ≈ initial for
/// RAID0/RAID1/Hybrid; and padding has *no effect* for RAID5 because its
/// RMW pre-reads already brought the affected blocks into the cache.
pub fn write_buffering_ablation(opts: &FigOpts) -> Vec<BufferingRow> {
    let base = opts.profile(HwProfile::osc_itanium());
    let mut w = csar_workloads::btio::write_workload(0, csar_workloads::btio::Class::B, 9);
    // Subsample like the figure harness does.
    if opts.scale < 1.0 {
        let stride = (1.0 / opts.scale).round().max(1.0) as usize;
        let phases = std::mem::take(&mut w.phases);
        w.phases = phases.into_iter().enumerate().filter(|(i, _)| i % stride == 0).map(|(_, p)| p).collect();
    }
    [Scheme::Raid0, Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid]
        .iter()
        .map(|&scheme| {
            let ratio = |buffering: bool, pad: bool| {
                let mut p = base;
                p.write_buffering = buffering;
                p.pad_partial_blocks = pad;
                let (initial, over) =
                    crate::harness::run_overwrite(p, 6, scheme, 64 * 1024, &w);
                over.write_mbps / initial.write_mbps
            };
            BufferingRow {
                scheme: scheme.label(),
                buffered: ratio(true, false),
                unbuffered: ratio(false, false),
                padded: ratio(true, true),
            }
        })
        .collect()
}
