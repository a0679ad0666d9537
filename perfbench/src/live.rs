//! The live threaded cluster, driven from one client thread.
//!
//! A round is three passes over the workload's region: writes, reads of
//! the same ranges, and the same reads with one server failed. Every
//! read is checked against a shadow copy of what was written.

use crate::report::Checks;
use crate::shape::{Shape, GROUP, SERVERS, UNIT};
use crate::spans::PhaseSelf;
use crate::stats::{ns_since, process_cpu_ns};
use csar_cluster::{Cluster, File, OpStats};
use csar_core::recovery::parity_consistent;
use csar_core::server::ServerConfig;
use csar_obs::trace::TraceId;
use csar_store::{SplitMix64, StreamKind};
use std::collections::HashSet;
use std::time::Instant;

/// Distinct seeded payloads the writes draw from.
const POOL: usize = 16;
/// Traced ops between flight-recorder polls; the recorder keeps the
/// last 32 ops, so polling every 16 loses none.
const POLL_EVERY: usize = 16;

/// Which pass of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Writes of every slot.
    Write,
    /// Reads of the same slots.
    Read,
    /// The same reads with one server fail-stopped.
    Degraded,
}

impl Pass {
    const ALL: [Pass; 3] = [Pass::Write, Pass::Read, Pass::Degraded];
}

/// A ready cluster holding the prefilled file.
pub struct Live {
    shape: Shape,
    cluster: Cluster,
    file: File,
    shadow: Vec<u8>,
    pool: Vec<Vec<u8>>,
    rng: SplitMix64,
}

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct PassLog {
    /// Per-op wall time, issue order.
    pub lat_ns: Vec<u64>,
    /// Process CPU time spent inside the ops.
    pub cpu_ns: u64,
    /// Transport counters accumulated over the pass.
    pub stats: OpStats,
    /// Ops that returned an error.
    pub failed: u64,
}

/// One round: a log per pass.
#[derive(Debug, Clone, Default)]
pub struct RoundLog {
    /// Indexed by `Pass as usize`.
    pub passes: [PassLog; 3],
}

impl RoundLog {
    /// The log of `pass`.
    pub fn pass(&self, pass: Pass) -> &PassLog {
        &self.passes[pass as usize]
    }

    /// Sum of op wall times over all passes.
    pub fn op_ns(&self) -> u64 {
        self.passes.iter().flat_map(|p| &p.lat_ns).sum()
    }

    /// Requests per pass, the round's deterministic fingerprint.
    pub fn requests(&self) -> [u64; 3] {
        self.passes.each_ref().map(|p| p.stats.requests)
    }
}

fn delta(after: OpStats, before: OpStats) -> OpStats {
    OpStats {
        ops: after.ops - before.ops,
        requests: after.requests - before.requests,
        retries: after.retries - before.retries,
        max_in_flight: after.max_in_flight,
        ttfb_ns: after.ttfb_ns - before.ttfb_ns,
        queue_stall_ns: after.queue_stall_ns - before.queue_stall_ns,
        elapsed_ns: after.elapsed_ns - before.elapsed_ns,
    }
}

/// The seeded live inputs: the region's initial bytes, the payload pool
/// the writes draw from, and the generator of every later choice.
/// Generated before the timed set-up, which then only feeds them in.
pub struct Inputs {
    shadow: Vec<u8>,
    pool: Vec<Vec<u8>>,
    rng: SplitMix64,
}

impl Inputs {
    /// The inputs of `shape` under `seed`.
    pub fn new(shape: Shape, seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let mut shadow = vec![0u8; shape.region as usize];
        rng.fill_bytes(&mut shadow);
        let pool = (0..POOL)
            .map(|_| {
                let mut v = vec![0u8; shape.op_bytes as usize];
                rng.fill_bytes(&mut v);
                v
            })
            .collect();
        Inputs { shadow, pool, rng }
    }
}

impl Live {
    /// Spawn a 5-server cluster, create the workload's file and fill its
    /// region with the inputs' bytes by whole-group writes.
    pub fn setup(shape: Shape, inputs: Inputs) -> Live {
        let Inputs { shadow, pool, rng } = inputs;
        let cluster = Cluster::spawn(SERVERS, ServerConfig::default());
        let file = cluster
            .client()
            .create("bench", shape.scheme, UNIT)
            .expect("create bench file");
        for (g, chunk) in shadow.chunks_exact(GROUP as usize).enumerate() {
            file.write_at(g as u64 * GROUP, chunk)
                .expect("prefill write");
        }
        Live {
            shape,
            cluster,
            file,
            shadow,
            pool,
            rng,
        }
    }

    /// Bytes the benchmark itself holds for checking and feeding the
    /// writes: the shadow copy and the payload pool.
    pub fn input_bytes(&self) -> usize {
        self.shadow.len() + self.pool.iter().map(Vec::len).sum::<usize>()
    }

    /// Turn causal tracing on or off cluster-wide.
    pub fn set_tracing(&self, on: bool) {
        self.cluster.set_tracing(on);
    }

    /// Run one round. With `spans`, the flight recorder is polled every
    /// [`POLL_EVERY`] ops and each new op's spans are folded in.
    pub fn round(&mut self, checks: &mut Checks, mut spans: Option<&mut Collector>) -> RoundLog {
        let offs = self.shape.live_pass(&mut self.rng);
        let mut log = RoundLog::default();
        for pass in Pass::ALL {
            let failed_srv =
                (pass == Pass::Degraded).then(|| self.rng.gen_range(0..SERVERS as u64) as u32);
            if let Some(s) = failed_srv {
                self.cluster.fail_server(s);
            }
            let before = self.file.op_stats();
            let p = &mut log.passes[pass as usize];
            p.lat_ns.reserve(offs.len());
            for (i, &off) in offs.iter().enumerate() {
                let lo = off as usize;
                let hi = lo + self.shape.op_bytes as usize;
                let cpu0 = process_cpu_ns();
                let t = Instant::now();
                let ok = match pass {
                    Pass::Write => {
                        let data = &self.pool[self.rng.gen_usize(0..POOL)];
                        let r = self.file.write_at(off, data);
                        p.lat_ns.push(ns_since(t));
                        p.cpu_ns += process_cpu_ns() - cpu0;
                        self.shadow[lo..hi].copy_from_slice(data);
                        r.is_ok()
                    }
                    Pass::Read | Pass::Degraded => {
                        let r = self.file.read_at(off, self.shape.op_bytes);
                        p.lat_ns.push(ns_since(t));
                        p.cpu_ns += process_cpu_ns() - cpu0;
                        if let Ok(bytes) = &r {
                            checks.require(bytes[..] == self.shadow[lo..hi], || {
                                format!("{pass:?} read at {off} differs from the written bytes")
                            });
                        }
                        r.is_ok()
                    }
                };
                if !ok {
                    p.failed += 1;
                }
                if let Some(c) = spans.as_deref_mut() {
                    if (i + 1) % POLL_EVERY == 0 || i + 1 == offs.len() {
                        c.poll(&self.cluster);
                    }
                }
            }
            p.stats = delta(self.file.op_stats(), before);
            if let Some(s) = failed_srv {
                self.cluster.restore_server(s);
            }
        }
        log
    }

    /// Bytes stored cluster-wide (all streams) and in the overflow
    /// streams, for the file.
    pub fn storage(&self) -> (u64, u64) {
        let agg = self
            .file
            .storage_report()
            .expect("storage report")
            .aggregate();
        (agg.total(), agg.overflow + agg.overflow_mirror)
    }

    /// Check every parity group of the region against its in-place data
    /// blocks, reading each server's store directly.
    pub fn check_parity(&self, checks: &mut Checks) {
        let meta = self.file.meta();
        let ly = meta.layout;
        for g in 0..self.shape.region / GROUP {
            let blocks: Vec<Vec<u8>> = ly
                .group_blocks(g)
                .map(|b| {
                    let local = ly.data_local_off(b, 0);
                    self.cluster.with_server(ly.home_server(b), |s| {
                        s.store()
                            .read(meta.fh, StreamKind::Data, local, UNIT)
                            .to_flat_vec()
                    })
                })
                .map(|v| v.expect("data blocks hold real bytes"))
                .collect();
            let parity = self
                .cluster
                .with_server(ly.parity_server(g), |s| {
                    s.store()
                        .read(meta.fh, StreamKind::Parity, ly.parity_local_off(g, 0), UNIT)
                        .to_flat_vec()
                })
                .expect("parity blocks hold real bytes");
            let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
            checks.require(parity_consistent(&refs, &parity), || {
                format!("parity group {g} inconsistent")
            });
        }
    }

    /// Stop the cluster's threads and wait for them.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

/// Program trace spans gathered from the flight recorder.
#[derive(Default)]
pub struct Collector {
    seen: HashSet<TraceId>,
    /// Self time per phase over every collected op.
    pub phases: PhaseSelf,
}

impl Collector {
    fn poll(&mut self, cluster: &Cluster) {
        for op in cluster.flight_spans() {
            if let Some(first) = op.first() {
                if self.seen.insert(first.trace) {
                    self.phases.add(&op);
                }
            }
        }
    }
}
