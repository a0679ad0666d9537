//! The discrete-event simulator on the paper's Myrinet/Pentium III
//! testbed profile, with phantom payloads.
//!
//! Every phase starts from the same state — the file evicted from the
//! server caches and the disks settled — so each phase's virtual-time
//! results are identical, and host time measures the drivers, server
//! engines and event loop alone.

use crate::shape::{Shape, GROUP, SERVERS, SIM_CLIENTS, UNIT};
use crate::spans::PhaseSelf;
use csar_sim::{HwProfile, Op, Phase, SimCluster};
use std::time::Instant;

/// A simulated cluster holding the prefilled file and the phase script.
pub struct Sim {
    cluster: SimCluster,
    file: usize,
    script: Phase,
}

/// What one phase measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseLog {
    /// Virtual duration of the phase, ns.
    pub virtual_ns: u64,
    /// User bytes written.
    pub bytes: u64,
    /// Ops completed.
    pub ops: u64,
    /// Protocol requests sent.
    pub requests: u64,
    /// §5.1 lock grants that had to wait for another holder.
    pub contended: u64,
    /// §5.1 lock grants.
    pub acquired: u64,
    /// Host wall time of `run_phase`, ns.
    pub host_ns: u64,
}

impl PhaseLog {
    /// The fields that must repeat exactly (everything but host time).
    pub fn model(&self) -> PhaseLog {
        PhaseLog {
            host_ns: 0,
            ..*self
        }
    }

    /// Virtual-time write bandwidth, MB/s (10^6 bytes).
    pub fn model_mbps(&self) -> f64 {
        self.bytes as f64 * 1e3 / self.virtual_ns as f64
    }
}

impl Sim {
    /// Build the cluster, create the workload's file, fill its region by
    /// whole-group writes and prepare the phase script.
    pub fn setup(shape: Shape) -> Sim {
        let mut cluster = SimCluster::new(HwProfile::myrinet_pentium3(), SERVERS, SIM_CLIENTS);
        let file = cluster.create_file("bench", shape.scheme, UNIT);
        let prefill = (0..shape.sim_region / GROUP)
            .map(|g| Op::Write {
                file,
                off: g * GROUP,
                len: GROUP,
            })
            .collect();
        cluster.run_phase(vec![(0, prefill)]);
        let script = shape.sim_script(file);
        Sim {
            cluster,
            file,
            script,
        }
    }

    /// Run one phase of the script from an evicted cache and idle disks.
    /// With `spans`, tracing is on for the phase and its spans are
    /// folded in.
    pub fn phase(&mut self, spans: Option<&mut PhaseSelf>) -> PhaseLog {
        self.cluster.evict_file(self.file);
        self.cluster.settle_disks();
        let script = self.script.clone();
        let (c0, a0) = self.cluster.lock_contention();
        if spans.is_some() {
            self.cluster.set_tracing(true);
        }
        let t = Instant::now();
        let stats = self.cluster.run_phase(script);
        let host_ns = t.elapsed().as_nanos() as u64;
        if let Some(p) = spans {
            self.cluster.set_tracing(false);
            p.add(&self.cluster.take_traces());
        }
        let (c1, a1) = self.cluster.lock_contention();
        PhaseLog {
            virtual_ns: stats.duration_ns,
            bytes: stats.bytes_written,
            ops: stats.ops,
            requests: stats.requests,
            contended: c1 - c0,
            acquired: a1 - a0,
            host_ns,
        }
    }
}
