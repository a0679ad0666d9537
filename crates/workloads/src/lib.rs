//! # csar-workloads — the paper's benchmark workloads
//!
//! Offset/size-faithful generators for every workload in the CSAR
//! paper's evaluation (§6). The PVFS layer only ever sees a stream of
//! `(offset, size)` requests per client, and the paper characterises
//! each application by exactly that mix, so these generators reproduce:
//!
//! * **microbenchmarks** — single-client full-stripe writes (Fig. 4a),
//!   single-client one-block writes into an existing file (Fig. 4b), and
//!   the five-clients-one-stripe locking benchmark (Fig. 3);
//! * **ROMIO `perf`** — every client writes/reads a 4 MB buffer at
//!   `rank · 4 MB` (Fig. 5);
//! * **NAS BTIO** (`full-mpiio`) — 40 collective solution dumps; ROMIO's
//!   collective buffering presents ~`total/40/P`-sized, non-aligned
//!   contiguous chunks per process (Figs. 6, 7; Table 2);
//! * **FLASH I/O** — checkpoint + two plotfiles; 37–46 % of requests
//!   under 2 KB, the rest 100–300 KB, interleaved per variable (Fig. 8;
//!   Table 2);
//! * **Cactus/BenchIO** — 8 processes × ~400 MB in 4 MB chunks (Fig. 8);
//! * **Hartree-Fock** — one sequential process, ~150 MB in 16 KB writes
//!   through the kernel-module path (Fig. 8).
//!
//! Generators emit [`csar_sim::Phase`]s (barrier-delimited per-client op
//! lists); each phase corresponds to one collective I/O step.

pub mod btio;
pub mod cactus;
pub mod flash;
pub mod hartree_fock;
pub mod microbench;
pub mod romio;

use csar_sim::{Op, Phase};

/// A complete workload: named phases plus execution hints.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name (paper figure/table labels).
    pub name: String,
    /// Barrier-delimited phases, executed in order.
    pub phases: Vec<Phase>,
    /// True when the application reached PVFS through the kernel module
    /// (Hartree-Fock): per-request client overhead is much higher, which
    /// is the paper's explanation for Fig. 8's HF column being flat
    /// across schemes.
    pub kernel_module: bool,
    /// Client-side overhead charged per operation (ns): application and
    /// VFS/upcall time serialized before each request reaches PVFS.
    /// Dominant for the kernel-module path.
    pub op_overhead_ns: u64,
}

impl Workload {
    /// Total bytes written across all phases.
    pub fn bytes_written(&self) -> u64 {
        self.iter_ops()
            .map(|op| match op {
                Op::Write { len, .. } => *len,
                Op::Read { .. } | Op::Scrub { .. } => 0,
            })
            .sum()
    }

    /// Total bytes read across all phases.
    pub fn bytes_read(&self) -> u64 {
        self.iter_ops()
            .map(|op| match op {
                Op::Read { len, .. } => *len,
                Op::Write { .. } | Op::Scrub { .. } => 0,
            })
            .sum()
    }

    /// Total number of requests.
    pub fn request_count(&self) -> usize {
        self.iter_ops().count()
    }

    /// Fraction of write requests strictly smaller than `bytes`.
    pub fn fraction_smaller_than(&self, bytes: u64) -> f64 {
        let (mut small, mut total) = (0usize, 0usize);
        for op in self.iter_ops() {
            if let Op::Write { len, .. } = op {
                total += 1;
                if *len < bytes {
                    small += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            small as f64 / total as f64
        }
    }

    /// Number of distinct files referenced (max index + 1).
    pub fn files(&self) -> usize {
        self.iter_ops()
            .map(|op| match op {
                Op::Write { file, .. } | Op::Read { file, .. } | Op::Scrub { file } => *file + 1,
            })
            .max()
            .unwrap_or(1)
    }

    /// Number of distinct clients used.
    pub fn clients(&self) -> usize {
        self.phases
            .iter()
            .flat_map(|p| p.iter().map(|(c, _)| *c + 1))
            .max()
            .unwrap_or(0)
    }

    fn iter_ops(&self) -> impl Iterator<Item = &Op> {
        self.phases.iter().flatten().flat_map(|(_, ops)| ops.iter())
    }
}

/// Megabytes → bytes.
pub const fn mib(n: u64) -> u64 {
    n << 20
}

/// Kibibytes → bytes.
pub const fn kib(n: u64) -> u64 {
    n << 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_stats_helpers() {
        let w = Workload {
            name: "t".into(),
            phases: vec![
                vec![(0, vec![Op::Write { file: 0, off: 0, len: 100 }])],
                vec![
                    (0, vec![Op::Write { file: 0, off: 100, len: 5000 }]),
                    (1, vec![Op::Read { file: 0, off: 0, len: 300 }]),
                ],
            ],
            kernel_module: false,
            op_overhead_ns: 0,
        };
        assert_eq!(w.bytes_written(), 5100);
        assert_eq!(w.bytes_read(), 300);
        assert_eq!(w.request_count(), 3);
        assert_eq!(w.clients(), 2);
        assert_eq!(w.files(), 1);
        assert!((w.fraction_smaller_than(2048) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(mib(4), 4 * 1024 * 1024);
        assert_eq!(kib(16), 16384);
    }
}
