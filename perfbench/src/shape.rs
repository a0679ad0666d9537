//! The three workloads and the seeded inputs each one generates.

use csar_core::proto::Scheme;
use csar_sim::Op;
use csar_store::SplitMix64;

/// I/O servers in every workload's cluster, live and simulated.
pub const SERVERS: u32 = 5;
/// Stripe unit of every workload's file.
pub const UNIT: u64 = 64 * 1024;
/// Data bytes per parity group: `(SERVERS - 1) · UNIT`.
pub const GROUP: u64 = (SERVERS as u64 - 1) * UNIT;
/// Groups after which the RAID5 layout repeats (parity rotates over
/// every server once). Regions are whole multiples of it, so a pass that
/// covers the region loads every server alike and the request count of
/// a degraded pass does not depend on which server failed.
pub const ROTATION: u64 = SERVERS as u64;
/// Simulated clients in every workload's simulator run.
pub const SIM_CLIENTS: usize = 16;
/// Fixed seed of the simulator's script (see [`Shape::sim_script`]).
const SIM_BASE_SEED: u64 = 0x5EED_C5A2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RAID5 whole-group (256 KiB) sequential writes and reads (Fig. 4a).
    FullStripe,
    /// Hybrid 4 KiB random overwrites served from overflow (Fig. 4b).
    SmallOverwrite,
    /// RAID5 8 KiB partial-group overwrites colliding on §5.1 parity
    /// locks (Fig. 3).
    ContendedRmw,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FullStripe,
        Workload::SmallOverwrite,
        Workload::ContendedRmw,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FullStripe => "full_stripe",
            Workload::SmallOverwrite => "small_overwrite",
            Workload::ContendedRmw => "contended_rmw",
        }
    }

    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::FullStripe => Shape {
                workload: self,
                scheme: Scheme::Raid5,
                op_bytes: GROUP,
                region: 2 * ROTATION * GROUP,
                sim_region: 16 * ROTATION * GROUP,
                sim_ops_per_client: 5,
            },
            Workload::SmallOverwrite => Shape {
                workload: self,
                scheme: Scheme::Hybrid,
                op_bytes: 4096,
                region: 4 * ROTATION * GROUP,
                sim_region: 4 * ROTATION * GROUP,
                sim_ops_per_client: 80,
            },
            Workload::ContendedRmw => Shape {
                workload: self,
                scheme: Scheme::Raid5,
                op_bytes: 8192,
                region: 12 * ROTATION * GROUP,
                sim_region: 12 * ROTATION * GROUP,
                sim_ops_per_client: 250,
            },
        }
    }
}

/// What a workload's inputs look like; the seed chooses only their order
/// and contents.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// The workload this shape belongs to.
    pub workload: Workload,
    /// Redundancy scheme of the file.
    pub scheme: Scheme,
    /// Bytes per write and per read.
    pub op_bytes: u64,
    /// Bytes of the live file the ops address, a multiple of
    /// [`ROTATION`] groups.
    pub region: u64,
    /// Bytes of the simulated file, likewise.
    pub sim_region: u64,
    /// Ops per simulated client per phase.
    pub sim_ops_per_client: usize,
}

impl Shape {
    /// Aligned op slots in the live region.
    pub fn slots(&self) -> u64 {
        self.region / self.op_bytes
    }

    /// Aligned op slots in the simulated region.
    fn sim_slots(&self) -> u64 {
        self.sim_region / self.op_bytes
    }

    /// Offsets of one live pass: every slot once — in order for
    /// full-stripe streaming, in a seeded random order otherwise.
    pub fn live_pass(&self, rng: &mut SplitMix64) -> Vec<u64> {
        let mut offs: Vec<u64> = (0..self.slots()).map(|s| s * self.op_bytes).collect();
        if self.workload != Workload::FullStripe {
            shuffle(&mut offs, rng);
        }
        offs
    }

    /// One simulator phase: [`SIM_CLIENTS`] clients' write scripts, from
    /// a fixed seed, so every run simulates the same phase.
    pub fn sim_script(&self, file: usize) -> Vec<(usize, Vec<Op>)> {
        let per = self.sim_ops_per_client;
        let offs: Vec<u64> = match self.workload {
            // Each client streams its own contiguous run of groups.
            Workload::FullStripe => (0..self.sim_slots()).map(|s| s * self.op_bytes).collect(),
            // Every 4 KiB slot once, dealt round-robin in a fixed shuffle.
            Workload::SmallOverwrite => {
                let mut v: Vec<u64> = (0..self.sim_slots()).map(|s| s * self.op_bytes).collect();
                shuffle(&mut v, &mut SplitMix64::new(SIM_BASE_SEED));
                v
            }
            // Independent uniform slots: clients collide on groups.
            Workload::ContendedRmw => {
                let mut rng = SplitMix64::new(SIM_BASE_SEED);
                (0..per * SIM_CLIENTS)
                    .map(|_| rng.gen_range(0..self.sim_slots()) * self.op_bytes)
                    .collect()
            }
        };
        assert_eq!(
            offs.len(),
            per * SIM_CLIENTS,
            "sim script covers every client"
        );
        offs.chunks_exact(per)
            .enumerate()
            .map(|(c, chunk)| {
                let ops = chunk
                    .iter()
                    .map(|&off| Op::Write {
                        file,
                        off,
                        len: self.op_bytes,
                    })
                    .collect();
                (c, ops)
            })
            .collect()
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_usize(0..i + 1);
        v.swap(i, j);
    }
}
