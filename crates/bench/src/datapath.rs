//! The zero-allocation parity data path — the ablation behind
//! `BENCH_datapath.json`.
//!
//! Three measurements, one claim each:
//!
//! * **[`xor_bandwidth`]** — raw XOR bandwidth of [`xor_into`] on this
//!   host.
//! * **[`whole_group_alloc_audit`]** — heap allocations per whole-group
//!   parity computation when folding through a reused
//!   [`ParityAccumulator`] and a [`BufferPool`] scratch buffer, counted
//!   by the crate's [`crate::alloc_count`] global allocator. The
//!   acceptance target is **zero** steady-state allocations: after the
//!   first group warms the buffers up, computing another group touches
//!   the heap not at all.
//! * **[`inplace_all`]** — end-to-end host wall-clock of simulator
//!   write phases carrying *real* bytes ([`SimCluster::set_data_payloads`])
//!   through the in-place parity fold. Virtual-time results are
//!   identical to phantom payloads by construction — the same modelled
//!   hardware runs the same protocol — so the wall clock is purely the
//!   byte pipeline.
//!
//! Wall-clock numbers are host-dependent; each case takes the best of
//! three runs to shed scheduler noise. The allocation counts are exact
//! and hermetic.

use crate::alloc_count;
use csar_core::proto::Scheme;
use csar_parity::{xor_into, ParityAccumulator};
use csar_sim::{HwProfile, Op, RunStats, SimCluster};
use csar_store::{BufferPool, SplitMix64};
use std::time::Instant;

/// Measured bandwidth of [`xor_into`].
#[derive(Debug, Clone, Copy)]
pub struct XorBandwidth {
    /// Buffer length timed, bytes.
    pub block: usize,
    /// Destination bytes processed per second, GB/s.
    pub gbps: f64,
}

fn filled(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Time [`xor_into`] on `block`-byte buffers for `passes` iterations.
pub fn xor_bandwidth(block: usize, passes: usize) -> XorBandwidth {
    let mut rng = SplitMix64::new(0xDA7A_0001);
    let src = filled(&mut rng, block);
    let mut dst = filled(&mut rng, block);
    xor_into(&mut dst, &src); // warm caches
    let t0 = Instant::now();
    for _ in 0..passes {
        xor_into(&mut dst, &src);
    }
    let secs = t0.elapsed().as_secs_f64();
    XorBandwidth { block, gbps: (block * passes) as f64 / secs.max(1e-9) / 1e9 }
}

/// Result of [`whole_group_alloc_audit`].
#[derive(Debug, Clone, Copy)]
pub struct AllocAudit {
    /// Data blocks per group.
    pub width: usize,
    /// Block length, bytes.
    pub unit: usize,
    /// Groups computed after warmup.
    pub groups: u64,
    /// Heap allocations during the first (warmup) group: the
    /// accumulator's buffer and the pool's scratch block.
    pub warmup_allocs: u64,
    /// Heap allocations over all post-warmup groups combined. The
    /// zero-allocation datapath claim is exactly `steady_allocs == 0`.
    pub steady_allocs: u64,
}

impl AllocAudit {
    /// Steady-state allocations per whole-group parity computation.
    pub fn steady_per_group(&self) -> f64 {
        self.steady_allocs as f64 / self.groups.max(1) as f64
    }
}

fn compute_group(acc: &mut ParityAccumulator, pool: &std::sync::Arc<BufferPool>, blocks: &[Vec<u8>]) -> u8 {
    acc.reset();
    for b in blocks {
        acc.fold(b);
    }
    let mut out = pool.get();
    out.copy_from_slice(acc.current());
    out[0] // observable result so the fold cannot be optimised away
}

/// Count heap allocations per whole-group parity computation on the
/// reuse path (accumulator + pooled scratch).
pub fn whole_group_alloc_audit(width: usize, unit: usize, groups: u64) -> AllocAudit {
    let mut rng = SplitMix64::new(0xDA7A_0002);
    let blocks: Vec<Vec<u8>> = (0..width).map(|_| filled(&mut rng, unit)).collect();
    let mut acc = ParityAccumulator::new(unit);
    let pool = BufferPool::new(unit, 2);
    let (_, warmup_allocs) = alloc_count::count(|| compute_group(&mut acc, &pool, &blocks));
    let (_, steady_allocs) = alloc_count::count(|| {
        let mut sink = 0u8;
        for _ in 0..groups {
            sink ^= compute_group(&mut acc, &pool, &blocks);
        }
        sink
    });
    AllocAudit { width, unit, groups, warmup_allocs, steady_allocs }
}

/// One simulator phase timed on the host clock.
#[derive(Debug, Clone)]
pub struct WallRun {
    /// Virtual-time stats of the measured phase (identical to a
    /// phantom-payload run; asserted by the tests).
    pub virt: RunStats,
    /// Host wall-clock of the measured phase, ns.
    pub wall_ns: u64,
}

impl WallRun {
    /// Host-side write throughput: bytes the phase wrote over the wall
    /// time it took to simulate them, MB/s.
    pub fn wall_write_mbps(&self) -> f64 {
        self.virt.bytes_written as f64 / (self.wall_ns.max(1) as f64 / 1e9) / 1e6
    }
}

/// In-place-fold wall-clock for one scheme.
#[derive(Debug, Clone)]
pub struct DatapathCase {
    pub case: &'static str,
    pub scheme: Scheme,
    pub inplace: WallRun,
}

/// Run one measured write phase with real byte payloads.
///
/// The file is pre-written (extents and EOF established) and the disks
/// settled, so the measured ops are steady-state whole-group
/// overwrites — the shape the zero-allocation work targets. The ops
/// cycle over [`SLOTS`] disjoint windows of the file, so the working
/// set (and the sim's shared pattern buffer) stays bounded no matter
/// how many ops the scale factor asks for.
fn run_wall(scheme: Scheme, servers: u32, unit: u64, groups_per_op: u64, ops_n: u64) -> WallRun {
    let mut sim = SimCluster::new(HwProfile::myrinet_pentium3(), servers, 1);
    sim.set_data_payloads(true);
    let file = sim.create_file("datapath", scheme, unit);
    let group = (servers as u64 - 1) * unit;
    let len = groups_per_op * group;
    sim.run_phase(vec![(0, vec![Op::Write { file, off: 0, len: SLOTS * len }])]);
    sim.settle_disks();
    let ops: Vec<Op> =
        (0..ops_n).map(|i| Op::Write { file, off: (i % SLOTS) * len, len }).collect();
    let t0 = Instant::now();
    let virt = sim.run_phase(vec![(0, ops)]);
    WallRun { virt, wall_ns: t0.elapsed().as_nanos() as u64 }
}

fn best_of(n: usize, mut f: impl FnMut() -> WallRun) -> WallRun {
    let mut best = f();
    for _ in 1..n {
        let r = f();
        if r.wall_ns < best.wall_ns {
            best = r;
        }
    }
    best
}

/// Geometry of the wall-clock comparison (exported so the tier-1 smoke
/// run and the full bench agree on shape and differ only in volume).
pub const SERVERS: u32 = 6;
pub const UNIT: u64 = 256 * 1024;
pub const GROUPS_PER_OP: u64 = 8;
/// Distinct file windows the measured ops cycle over (see [`run_wall`]).
pub const SLOTS: u64 = 4;

/// The grid dumped into `BENCH_datapath.json`: multi-stripe
/// whole-group overwrites under RAID1, RAID5 and Hybrid through the
/// in-place fold. `scale` shrinks the op count for smoke runs.
pub fn inplace_all(scale: f64) -> Vec<DatapathCase> {
    let ops_n = ((12.0 * scale).ceil() as u64).max(2);
    [Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid]
        .into_iter()
        .map(|scheme| DatapathCase {
            case: "multi_stripe_whole_group",
            scheme,
            inplace: best_of(3, || run_wall(scheme, SERVERS, UNIT, GROUPS_PER_OP, ops_n)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance core: after warmup, a whole-group parity
    /// computation performs exactly zero heap allocations.
    #[test]
    fn steady_state_group_parity_is_allocation_free() {
        let audit = whole_group_alloc_audit(5, 16 * 1024, 64);
        assert!(audit.warmup_allocs > 0, "warmup must allocate the reusable buffers");
        assert_eq!(
            audit.steady_allocs, 0,
            "steady-state whole-group parity computation must not touch the heap"
        );
    }

    /// The datapath mode only changes host-side byte handling: the
    /// simulated protocol, virtual timings and byte accounting are
    /// identical whether payloads are phantom or real.
    #[test]
    fn datapath_mode_never_changes_virtual_time() {
        let run = |data: bool| {
            let mut sim = SimCluster::new(HwProfile::myrinet_pentium3(), 4, 1);
            sim.set_data_payloads(data);
            let file = sim.create_file("virt", Scheme::Raid5, 4 * 1024);
            let group = 3 * 4 * 1024u64;
            sim.run_phase(vec![(0, vec![Op::Write { file, off: 0, len: 4 * group }])]);
            sim.settle_disks();
            // Unaligned overwrite: partial head + full groups + tail,
            // so both the RMW splice and the whole-group fold run.
            sim.run_phase(vec![(0, vec![Op::Write { file, off: 2048, len: 3 * group }])])
        };
        let phantom = run(false);
        let data = run(true);
        assert_eq!(data.duration_ns, phantom.duration_ns, "virtual time diverged");
        assert_eq!(data.bytes_written, phantom.bytes_written, "byte accounting diverged");
        assert_eq!(data.requests, phantom.requests, "request count diverged");
    }

    #[test]
    fn xor_bandwidth_is_positive() {
        let r = xor_bandwidth(256 * 1024, 16);
        assert_eq!(r.block, 256 * 1024);
        assert!(r.gbps > 0.0, "bandwidth must be positive");
    }
}
