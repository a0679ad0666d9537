//! Layers timed in isolation on the workload's own shapes, on one
//! thread: no cross-thread scheduling inside any timed call.
//!
//! One [`Layers::batch`] times each layer once over a small batch of
//! calls (after one untimed warm-up batch); the traced run interleaves batches with its live rounds and
//! reports each layer's median batch, so a stall spoils one batch, not
//! the figure, and the samples span the whole run.

use crate::report::Checks;
use crate::shape::{Shape, GROUP, SERVERS, UNIT};
use crate::spans::OwnSpans;
use crate::stats::median;
use csar_core::client::{run_driver, Completion, OpDriver, ReadDriver, WriteDriver};
use csar_core::manager::FileMeta;
use csar_core::server::{Effect, IoServer, ServerConfig};
use csar_core::{CsarError, Layout};
use csar_parity::{xor_into, ParityAccumulator};
use csar_store::{Bytes, Payload, SparseFile, SplitMix64};
use std::hint::black_box;
use std::time::Instant;

/// Isolated per-layer results.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `xor_into` on 64 KiB blocks, GB/s (10^9 bytes).
    pub xor_gbps: f64,
    /// `ParityAccumulator` fold of one group's data blocks, µs.
    pub fold_us_per_group: f64,
    /// `SparseFile::write` of one per-server span, ns.
    pub sparse_write_ns: f64,
    /// `SparseFile::read_zero_filled` of one per-server span, ns.
    pub sparse_read_ns: f64,
    /// `WriteDriver` construction plus its `Begin` poll, µs.
    pub plan_us: f64,
    /// `IoServer::handle_at` per request the workload sends, ns.
    pub handle_ns: f64,
}

fn seeded(len: u64, rng: &mut SplitMix64) -> Vec<u8> {
    let mut v = vec![0u8; len as usize];
    rng.fill_bytes(&mut v);
    v
}

/// Wall time of the second of two calls of `f`, ns: the first brings
/// the layer's code and data back into cache after the live rounds.
fn warm_ns(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// The inputs and state each layer is timed on, and the samples so far.
pub struct Layers {
    blocks: Vec<Vec<u8>>,
    dst: Vec<u8>,
    acc: ParityAccumulator,
    /// One server's share of the region, written in the per-server
    /// spans this workload's requests carry.
    file: SparseFile,
    span: u64,
    span_payload: Payload,
    span_offs: Vec<u64>,
    meta: FileMeta,
    op: Payload,
    op_offs: Vec<u64>,
    servers: Servers,
    /// Per-batch results, in [`LayerTimes`] field order.
    samples: [Vec<f64>; 6],
}

impl Layers {
    /// Prepare the layers' inputs for `shape`.
    pub fn new(shape: Shape, seed: u64, checks: &mut Checks) -> Layers {
        let mut rng = SplitMix64::new(seed ^ 0x1A7E_u64);
        let blocks: Vec<Vec<u8>> = (0..SERVERS - 1).map(|_| seeded(UNIT, &mut rng)).collect();
        let span = shape.op_bytes.min(UNIT);
        let slots = shape.region / SERVERS as u64 / span;
        let span_payload = Payload::Data(Bytes::from(seeded(span, &mut rng)));
        let mut file = SparseFile::new();
        for s in 0..slots {
            file.write(s * span, span_payload.clone());
        }
        let meta = FileMeta {
            fh: 1,
            name: "layers".into(),
            scheme: shape.scheme,
            layout: Layout::new(SERVERS, UNIT),
            size: shape.region,
        };
        let mut servers = Servers {
            servers: (0..SERVERS)
                .map(|i| IoServer::new(i, ServerConfig::default()))
                .collect(),
            req_id: 0,
            own: OwnSpans::default(),
        };
        let fill = Payload::Data(Bytes::from(vec![0x5Au8; GROUP as usize]));
        for g in 0..meta.size / GROUP {
            servers.run(
                &mut WriteDriver::new(&meta, g * GROUP, fill.clone()),
                checks,
            );
        }
        Layers {
            dst: blocks[0].clone(),
            acc: ParityAccumulator::new(UNIT as usize),
            blocks,
            file,
            span,
            span_payload,
            span_offs: (0..256).map(|_| rng.gen_range(0..slots) * span).collect(),
            meta,
            op: Payload::Data(Bytes::from(seeded(shape.op_bytes, &mut rng))),
            op_offs: (0..16)
                .map(|_| rng.gen_range(0..shape.slots()) * shape.op_bytes)
                .collect(),
            servers,
            samples: Default::default(),
        }
    }

    /// Time one batch of calls into each layer.
    pub fn batch(&mut self, checks: &mut Checks) {
        let xor = warm_ns(|| {
            for _ in 0..64 {
                xor_into(black_box(&mut self.dst), black_box(&self.blocks[1]));
            }
        });
        self.samples[0].push((64 * UNIT) as f64 / xor);

        let fold = warm_ns(|| {
            for _ in 0..16 {
                self.acc.reset();
                for b in &self.blocks {
                    self.acc.fold(black_box(b));
                }
                black_box(self.acc.current());
            }
        });
        self.samples[1].push(fold / 16.0 / 1e3);

        let n = self.span_offs.len() as f64;
        let write = warm_ns(|| {
            for &off in &self.span_offs {
                self.file.write(off, self.span_payload.clone());
            }
        });
        self.samples[2].push(write / n);
        let read = warm_ns(|| {
            for &off in &self.span_offs {
                black_box(self.file.read_zero_filled(off, self.span));
            }
        });
        self.samples[3].push(read / n);

        let plan = warm_ns(|| {
            for &off in &self.op_offs {
                let mut d = WriteDriver::new(&self.meta, off, self.op.clone());
                black_box(d.poll(Completion::Begin));
            }
        });
        self.samples[4].push(plan / self.op_offs.len() as f64 / 1e3);

        // The workload's writes, reads and degraded reads through the
        // reference executor, twice; only the second pass's `handle_at`
        // calls count.
        let s = &mut self.servers;
        let len = self.op.len();
        let mut totals = (0, 0);
        for _ in 0..2 {
            totals = (s.own.total_ns(HANDLE), s.own.count(HANDLE));
            for (i, &off) in self.op_offs.iter().enumerate() {
                s.run(
                    &mut WriteDriver::new(&self.meta, off, self.op.clone()),
                    checks,
                );
                s.run(&mut ReadDriver::new(&self.meta, off, len, None), checks);
                let failed = Some(i as u32 % SERVERS);
                s.run(&mut ReadDriver::new(&self.meta, off, len, failed), checks);
            }
        }
        let handled = s.own.count(HANDLE) - totals.1;
        self.samples[5].push((s.own.total_ns(HANDLE) - totals.0) as f64 / handled as f64);
    }

    /// Each layer's median batch.
    pub fn times(&mut self) -> LayerTimes {
        let [xor, fold, write, read, plan, handle] = &mut self.samples;
        LayerTimes {
            xor_gbps: median(xor),
            fold_us_per_group: median(fold),
            sparse_write_ns: median(write),
            sparse_read_ns: median(read),
            plan_us: median(plan),
            handle_ns: median(handle),
        }
    }
}

/// In-process servers behind the reference executor, with a span
/// around every `IoServer::handle_at` call.
struct Servers {
    servers: Vec<IoServer>,
    req_id: u64,
    own: OwnSpans,
}

impl Servers {
    fn run(&mut self, d: &mut dyn OpDriver, checks: &mut Checks) {
        let out = run_driver(d, |srv, req| {
            self.req_id += 1;
            let (server, id) = (&mut self.servers[srv as usize], self.req_id);
            let effects = self.own.time(HANDLE, || server.handle_at(0, id, req, 0));
            match effects.into_iter().next() {
                Some(Effect::Reply { resp, .. }) => Ok(resp),
                None => Err(CsarError::Protocol(
                    "request parked with no other client".into(),
                )),
            }
        });
        checks.require(out.is_ok(), || {
            format!("reference-executor op failed: {out:?}")
        });
    }
}

const HANDLE: &str = "core.server.handle_at";
