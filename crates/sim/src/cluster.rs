//! The simulated cluster: csar-core engines + timing model + event loop.
//!
//! Clients run the shared completion engine ([`OpEngine`]) with an
//! unbounded window and no deadline; this module is only its executor —
//! the virtual clock, the modelled client CPU/NIC, sim-owned request and
//! trace IDs — plus the server-side cost model.

use crate::config::HwProfile;
use crate::disk::DiskModel;
use crate::engine::EventQueue;
use crate::resource::FifoResource;
use crate::{mb_per_sec, transfer_ns};
use csar_core::client::engine::{EngineConfig, Executor, Finished, Note, OpEngine, OpStats};
use csar_core::client::{OpDriver, ReadDriver, Token, WriteDriver};
use csar_core::manager::FileMeta;
use csar_core::proto::{Request, Response, Scheme, ServerId};
use csar_core::server::{Effect as SrvEffect, IoServer, ServerConfig};
use csar_core::{CsarError, Layout};
use csar_obs::trace::{Phase as TrPhase, TraceId, TraceSpan};
use csar_obs::MetricsRegistry;
use csar_store::{Bytes, Payload, SplitMix64};
use std::collections::VecDeque;

/// One workload operation issued by a simulated client.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Write `len` (phantom) bytes at `off` of file `file`.
    Write { file: usize, off: u64, len: u64 },
    /// Read `len` bytes at `off` of file `file`.
    Read { file: usize, off: u64, len: u64 },
}

/// A barrier-delimited phase: per-client operation lists. All clients
/// start together; the phase ends when every listed client finishes its
/// list (collective-I/O round semantics).
pub type Phase = Vec<(usize, Vec<Op>)>;

/// Results of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Wall-clock of the phase (last op completion − phase start).
    pub duration_ns: u64,
    /// Duration including draining dirty pages to the platters
    /// ("after the flush" in the ROMIO perf benchmark).
    pub flushed_duration_ns: u64,
    /// Logical bytes written by completed ops.
    pub bytes_written: u64,
    /// Logical bytes read by completed ops.
    pub bytes_read: u64,
    /// Operations completed in the phase.
    pub ops: u64,
    /// Protocol requests transmitted.
    pub requests: u64,
    /// Highest in-flight request count any single op reached.
    pub max_in_flight: u64,
    /// Sum over ops of time-to-first-reply (queueing sensitivity probe).
    pub ttfb_ns: u64,
    /// Time fully-received replies waited before delivery to the driver:
    /// ≈0 under pipelined delivery, the batch-barrier cost under
    /// [`SimCluster::set_barrier_mode`].
    pub stall_ns: u64,
}

impl RunStats {
    /// Aggregate write bandwidth, MB/s.
    pub fn write_mbps(&self) -> f64 {
        mb_per_sec(self.bytes_written, self.duration_ns)
    }

    /// Aggregate read bandwidth, MB/s.
    pub fn read_mbps(&self) -> f64 {
        mb_per_sec(self.bytes_read, self.duration_ns)
    }

    /// Write bandwidth including the final cache flush, MB/s.
    pub fn flushed_write_mbps(&self) -> f64 {
        mb_per_sec(self.bytes_written, self.flushed_duration_ns)
    }
}

#[derive(Debug, Default)]
struct NodeRes {
    /// Outbound link serialization. (There is no separate inbound-link
    /// resource: for these profiles ingest is limited by the CPU copy
    /// path, which is well below wire speed — true of 2003-era TCP.)
    nic_out: FifoResource,
    /// Ingest copy path (rx softirq + daemon receive copies).
    cpu: FifoResource,
    /// Egress copy path. Separate from ingest so a small control request
    /// (a parity read) is not queued behind megabytes of other clients'
    /// incoming bulk data — real iods interleave connections.
    cpu_out: FifoResource,
}

struct ClientState {
    res: NodeRes,
    /// The op in progress, and the engine running it (one per client,
    /// reused op to op so its tables keep their allocations).
    driver: Option<Box<dyn OpDriver>>,
    eng: OpEngine,
    script: VecDeque<Op>,
    active: bool,
    /// Serialized client-side overhead charged before each op (the
    /// application/VFS time the op represents — see
    /// `csar_workloads::Workload::op_overhead_ns`).
    op_overhead_ns: u64,
}

enum Ev {
    /// Start the client's next scripted op.
    ClientNext(usize),
    /// A request's first byte reaches a server; `fully_arrived` is when
    /// its last byte does (cut-through: processing may overlap reception
    /// but cannot complete before the data is all there).
    ServerArrive { s: usize, from: u32, req_id: u64, req: Request, fully_arrived: u64 },
    /// A reply's first byte reaches the client.
    ClientArrive { c: usize, req_id: u64, resp: Response, fully_arrived: u64 },
    /// A reply has been ingested by the client (CPU copy charged).
    ClientDeliver { c: usize, req_id: u64, resp: Response },
    /// The client's XOR compute finished.
    ComputeDone { c: usize, token: Token },
}

/// A simulated CSAR cluster.
///
/// Servers run the real [`IoServer`] engine; clients run the real write
/// and read drivers. Only *time* is synthetic.
///
/// ```
/// use csar_sim::{HwProfile, Op, SimCluster};
/// use csar_core::proto::Scheme;
///
/// let mut sim = SimCluster::new(HwProfile::myrinet_pentium3(), 4, 1);
/// let f = sim.create_file("ckpt", Scheme::Hybrid, 64 * 1024);
/// let stats = sim.run_phase(vec![(0, vec![Op::Write { file: f, off: 0, len: 4 << 20 }])]);
/// assert_eq!(stats.bytes_written, 4 << 20);
/// assert!(stats.write_mbps() > 0.0);
/// ```
pub struct SimCluster {
    pub profile: HwProfile,
    servers: Vec<IoServer>,
    srv_res: Vec<NodeRes>,
    disks: Vec<DiskModel>,
    clients: Vec<ClientState>,
    files: Vec<FileMeta>,
    queue: EventQueue<Ev>,
    now: u64,
    next_req: u64,
    /// Fail-stopped server (reads run degraded around it).
    failed: Option<u32>,
    /// Extra per-request service delay per server (straggler modelling).
    slowdown_ns: Vec<u64>,
    /// Barrier-compat operation (see [`SimCluster::set_barrier_mode`]).
    barrier: bool,
    /// Carry real bytes in write payloads instead of `Payload::Phantom`,
    /// so the parity folds do real XOR work on the host. Virtual-time
    /// results are unchanged (the sim charges modelled compute either
    /// way); this exists so the cost ledger can count the allocations
    /// of the actual byte pipeline.
    data_payloads: bool,
    /// Shared pattern region backing data-payload mode: grown lazily to
    /// the largest write seen, then sliced per op at O(1). Keeping one
    /// long-lived buffer means measured phases time the byte pipeline,
    /// not the page allocator faulting in fresh payloads.
    pattern: Bytes,
    /// Deterministic causal tracing on the virtual clock. Trace ids come
    /// from a sim-owned counter (never the process-global allocator) and
    /// span ids from them, so a replayed run emits bit-identical spans.
    tracing: bool,
    next_trace: u64,
    traces: Vec<TraceSpan>,
    /// This cluster's client-side registry: the drivers' plan-shape and
    /// reconstruction counters. Each server keeps its own.
    obs: MetricsRegistry,
    // Phase accounting.
    active_clients: usize,
    bytes_written: u64,
    bytes_read: u64,
    /// The phase's completed ops, merged.
    op_stats: OpStats,
}

impl SimCluster {
    /// A cluster of `servers` I/O servers and `clients` client nodes.
    pub fn new(profile: HwProfile, servers: u32, clients: usize) -> Self {
        let cfg = ServerConfig {
            fs_block: profile.fs_block,
            cache_bytes: profile.server_cache_bytes,
            write_buffering: profile.write_buffering,
            pad_partial_blocks: profile.pad_partial_blocks,
            ..ServerConfig::default()
        };
        Self {
            profile,
            servers: (0..servers).map(|i| IoServer::new(i, cfg)).collect(),
            srv_res: (0..servers).map(|_| NodeRes::default()).collect(),
            disks: (0..servers)
                .map(|_| {
                    DiskModel::new(
                        profile.disk_write_bw,
                        profile.disk_read_bw,
                        profile.disk_positioning_ns,
                        profile.dirty_limit_bytes,
                    )
                })
                .collect(),
            clients: (0..clients)
                .map(|_| ClientState {
                    res: NodeRes::default(),
                    driver: None,
                    eng: OpEngine::default(),
                    script: VecDeque::new(),
                    active: false,
                    op_overhead_ns: 0,
                })
                .collect(),
            files: Vec::new(),
            queue: EventQueue::new(),
            now: 0,
            next_req: 0,
            failed: None,
            slowdown_ns: vec![0; servers as usize],
            barrier: false,
            data_payloads: false,
            pattern: Bytes::new(),
            tracing: false,
            next_trace: 0,
            traces: Vec::new(),
            obs: MetricsRegistry::new(),
            active_clients: 0,
            bytes_written: 0,
            bytes_read: 0,
            op_stats: OpStats::default(),
        }
    }

    /// Number of I/O servers.
    pub fn servers(&self) -> u32 {
        self.servers.len() as u32
    }

    /// Current simulated time, ns.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Create a file striped over all servers; returns its index for
    /// [`Op`]s.
    pub fn create_file(&mut self, name: &str, scheme: Scheme, stripe_unit: u64) -> usize {
        let fh = self.files.len() as u64 + 1;
        let layout = Layout::new(self.servers(), stripe_unit);
        layout.check_scheme(scheme).expect("invalid scheme for layout");
        self.files.push(FileMeta { fh, name: name.into(), scheme, layout, size: 0 });
        self.files.len() - 1
    }

    /// Metadata snapshot of a file.
    pub fn file_meta(&self, file: usize) -> FileMeta {
        self.files[file].clone()
    }

    /// Drop a file from every server's page cache ("contents removed
    /// from the cache" — the paper's overwrite setup).
    pub fn evict_file(&mut self, file: usize) {
        let m = &self.files[file];
        let hdr = csar_core::proto::ReqHeader::new(m.fh, m.layout, m.scheme);
        for s in 0..self.servers.len() {
            let req_id = self.next_req;
            self.next_req += 1;
            self.servers[s].handle(u32::MAX, req_id, Request::EvictFile { hdr });
        }
    }

    /// Fail-stop a server: subsequent reads run degraded (reconstructing
    /// around it). Writes during a failure are unsupported in the
    /// simulator — scripts must not address the failed server's blocks.
    pub fn fail_server(&mut self, id: u32) {
        assert!((id as usize) < self.servers.len());
        self.failed = Some(id);
    }

    /// Bring the failed server back (contents intact).
    pub fn restore_server(&mut self) {
        self.failed = None;
    }

    /// Add a fixed service delay to every request handled by server
    /// `id` — a straggler node. The pipelined engine overlaps the wait
    /// with other servers' work; the barrier engine stalls on it.
    pub fn set_server_slowdown(&mut self, id: u32, extra_ns: u64) {
        self.slowdown_ns[id as usize] = extra_ns;
    }

    /// Switch between pipelined (default, `false`) and barrier-compat
    /// (`true`) operation ([`EngineConfig::barrier`]). Barrier-compat
    /// reproduces the retired batch-synchronous engine on both sides of
    /// the exchange: every reply is held until the op's whole in-flight
    /// wave has arrived (the held time is charged to `stall_ns`), and
    /// write drivers are put in batch issue order
    /// ([`OpDriver::set_batch_issue`]) so whole-group writes ride behind
    /// the RMW read chain and parity unlocks close the combined write
    /// wave. The paper-reproduction harness pins this on — the paper's
    /// PVFS client was batch-synchronous — while comparison runs toggle
    /// it.
    pub fn set_barrier_mode(&mut self, barrier: bool) {
        self.barrier = barrier;
    }

    /// Carry real (deterministic pseudo-random) bytes in write payloads
    /// instead of [`Payload::Phantom`]. Virtual-time results do not
    /// change — the simulator charges modelled XOR/copy time either way —
    /// but the client drivers then do the real byte work, which is what
    /// the cost ledger counts allocations of.
    pub fn set_data_payloads(&mut self, on: bool) {
        self.data_payloads = on;
    }

    /// Deterministic payload bytes for data-payload mode: a seeded
    /// 4 KiB block tiled into one shared buffer (grown by doubling on
    /// first demand), sliced per op. After warmup every write's payload
    /// is an O(1) slice of long-lived memory.
    fn pattern_payload(&mut self, len: u64) -> Payload {
        let len = len as usize;
        if self.pattern.len() < len {
            let target = len.next_power_of_two();
            let mut v = vec![0u8; target.min(4096)];
            SplitMix64::new(0xC5A2_DA7A).fill_bytes(&mut v);
            v.reserve_exact(target - v.len());
            while v.len() < target {
                let n = (target - v.len()).min(v.len());
                v.extend_from_within(..n);
            }
            self.pattern = Bytes::from(v);
        }
        Payload::Data(self.pattern.slice(0..len))
    }

    /// Set the per-op client overhead charged to every client's CPU at
    /// op start (serialized application/VFS time).
    pub fn set_op_overhead(&mut self, ns: u64) {
        for c in &mut self.clients {
            c.op_overhead_ns = ns;
        }
    }

    /// Settle all disk backlogs (dirty data destaged, read queues idle)
    /// — the state after the paper's "file flushed and evicted" setup.
    pub fn settle_disks(&mut self) {
        for d in &mut self.disks {
            d.settle(self.now);
        }
    }

    /// Cluster-wide storage report for a file (Table 2).
    pub fn storage_report(&self, file: usize) -> csar_store::StorageReport {
        let fh = self.files[file].fh;
        csar_store::StorageReport::new(
            self.servers.iter().map(|s| s.store().usage_for(fh)).collect(),
        )
    }

    /// Total (contended, acquired) parity-lock counts across servers.
    pub fn lock_contention(&self) -> (u64, u64) {
        self.servers
            .iter()
            .map(|s| s.lock_contention())
            .fold((0, 0), |(c, a), (c2, a2)| (c + c2, a + a2))
    }

    /// Enable or disable metric recording on every simulated server
    /// engine and on this cluster's client-side registry.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        for s in &mut self.servers {
            s.obs.set_enabled(on);
        }
        self.obs.set_enabled(on);
    }

    /// Enable deterministic causal tracing: every subsequent op emits a
    /// span tree on the virtual clock ([`SimCluster::take_traces`]).
    /// Also flips the tracing gate on every simulated server registry,
    /// so §5.1 lock-wait spans reach the engines' trace rings exactly as
    /// in a live cluster.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        for s in &mut self.servers {
            s.obs.set_tracing(on);
        }
    }

    /// Drain every span emitted since the last call (event order, which
    /// is deterministic for a deterministic script).
    pub fn take_traces(&mut self) -> Vec<TraceSpan> {
        std::mem::take(&mut self.traces)
    }

    /// Merged metrics snapshot: every server's registry plus this
    /// cluster's client-side registry.
    pub fn metrics_snapshot(&self) -> csar_obs::Snapshot {
        let mut merged = self.obs.snapshot();
        for s in &self.servers {
            merged.merge(&s.obs.snapshot());
        }
        merged
    }

    /// Sum of per-server disk statistics.
    pub fn disk_totals(&self) -> csar_core::DiskCost {
        let mut total = csar_core::DiskCost::default();
        for s in &self.servers {
            total.merge(&s.stats.disk);
        }
        total
    }

    /// Run one barrier-delimited phase to completion.
    ///
    /// # Panics
    /// Panics if a client index exceeds the cluster's client count, or an
    /// operation fails (simulated runs are fault-free by construction).
    pub fn run_phase(&mut self, phase: Phase) -> RunStats {
        let start = self.now;
        self.bytes_written = 0;
        self.bytes_read = 0;
        self.active_clients = 0;
        self.op_stats = OpStats::default();
        for (c, ops) in phase {
            assert!(c < self.clients.len(), "client {c} out of range");
            if ops.is_empty() {
                continue;
            }
            let st = &mut self.clients[c];
            assert!(!st.active, "client {c} listed twice in a phase");
            st.script = ops.into();
            st.active = true;
            self.active_clients += 1;
            self.queue.push(self.now, Ev::ClientNext(c));
        }
        while let Some((t, ev)) = self.queue.pop() {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.handle_event(ev);
        }
        assert_eq!(self.active_clients, 0, "phase ended with active clients");
        let duration_ns = self.now - start;
        let flush = self
            .disks
            .iter()
            .map(DiskModel::flush_horizon)
            .max()
            .unwrap_or(self.now)
            .max(self.now);
        RunStats {
            duration_ns,
            flushed_duration_ns: flush - start,
            bytes_written: self.bytes_written,
            bytes_read: self.bytes_read,
            ops: self.op_stats.ops,
            requests: self.op_stats.requests,
            max_in_flight: self.op_stats.max_in_flight,
            ttfb_ns: self.op_stats.ttfb_ns,
            stall_ns: self.op_stats.queue_stall_ns,
        }
    }

    /// Convenience: run several phases back to back, returning per-phase
    /// stats.
    pub fn run_phases(&mut self, phases: Vec<Phase>) -> Vec<RunStats> {
        phases.into_iter().map(|p| self.run_phase(p)).collect()
    }

    // ---------------------------------------------------------------------

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::ClientNext(c) => self.start_next_op(c),
            Ev::ServerArrive { s, from, req_id, req, fully_arrived } => {
                self.server_arrive(s, from, req_id, req, fully_arrived)
            }
            Ev::ClientArrive { c, req_id, resp, fully_arrived } => {
                // Receive-side CPU copy, overlapped with reception but
                // finishing no earlier than the last byte.
                let p = &self.profile;
                let t = self.clients[c]
                    .res
                    .cpu
                    .acquire(self.now, transfer_ns(resp.payload_bytes(), p.client_copy_bw))
                    .max(fully_arrived);
                self.queue.push(t, Ev::ClientDeliver { c, req_id, resp });
            }
            Ev::ClientDeliver { c, req_id, resp } => {
                self.drive(c, |eng, d, io| eng.reply(req_id, resp, &[], d, io))
            }
            Ev::ComputeDone { c, token } => self.drive(c, |eng, d, io| eng.compute_done(token, d, io)),
        }
    }

    fn start_next_op(&mut self, c: usize) {
        let Some(op) = self.clients[c].script.pop_front() else {
            self.clients[c].active = false;
            self.active_clients -= 1;
            return;
        };
        // Serialized per-op client overhead: later sends queue behind it
        // on the client CPU.
        let overhead = self.clients[c].op_overhead_ns;
        if overhead > 0 {
            self.clients[c].res.cpu.acquire(self.now, overhead);
        }
        // Logical bytes are accounted on op start; completion is what
        // gates the phase end.
        let driver: Box<dyn OpDriver> = match op {
            Op::Write { file, off, len } => {
                assert!(len > 0, "zero-length write in script");
                self.bytes_written += len;
                // Update the shared EOF view first so later ops (and the
                // §5.2 classification) see it, like PVFS metadata updates.
                let meta = {
                    let m = &mut self.files[file];
                    m.size = m.size.max(off + len);
                    m.clone()
                };
                let payload = if self.data_payloads {
                    self.pattern_payload(len)
                } else {
                    Payload::Phantom(len)
                };
                Box::new(WriteDriver::new(&meta, off, payload))
            }
            Op::Read { file, off, len } => {
                assert!(len > 0, "zero-length read in script");
                self.bytes_read += len;
                Box::new(ReadDriver::new(&self.files[file], off, len, self.failed))
            }
        };
        let trace = self.tracing.then(|| {
            self.next_trace += 1;
            TraceId(self.next_trace)
        });
        let cfg = EngineConfig { barrier: self.barrier, ..EngineConfig::default() };
        self.clients[c].driver = Some(driver);
        self.drive(c, |eng, d, io| eng.begin(cfg, trace, d, io));
    }

    /// Run one engine step for client `c`'s op on the virtual clock, and
    /// account the op once it finishes.
    fn drive(&mut self, c: usize, step: impl FnOnce(&mut OpEngine, &mut dyn OpDriver, &mut SimIo) -> Finished) {
        let st = &mut self.clients[c];
        let Some(driver) = st.driver.as_mut() else { panic!("client {c} has no op in progress") };
        let eng = &mut st.eng;
        let mut io = SimIo {
            c,
            now: self.now,
            profile: &self.profile,
            res: &mut st.res,
            queue: &mut self.queue,
            next_req: &mut self.next_req,
            obs: &self.obs,
        };
        let Some(result) = step(eng, driver.as_mut(), &mut io) else { return };
        result.expect("simulated op failed");
        let stats = eng.finish(&mut io, &mut self.traces);
        self.op_stats.merge(&stats);
        st.driver = None;
        self.queue.push(self.now, Ev::ClientNext(c));
    }

    fn server_arrive(&mut self, s: usize, from: u32, req_id: u64, req: Request, fully_arrived: u64) {
        let p = self.profile;
        let in_bytes = req.payload_bytes();
        // Ingest processing overlaps reception (non-blocking receives +
        // the §5.2 write buffer) but cannot outrun the wire. The request
        // is *acknowledgeable* once its bytes are buffered — provided the
        // unprocessed ingest backlog still fits the server's buffering —
        // so consecutive requests pipeline like real sockets do.
        // Payload-free control requests (reads, parity locks) skip the
        // ingest queue entirely: the iod's select loop interleaves
        // connections, so a 64-byte request never waits behind megabytes
        // of other clients' bulk data.
        let gate = if in_bytes > 0 {
            let t1 = self.srv_res[s]
                .cpu
                .acquire(self.now, p.server_per_msg_ns + transfer_ns(in_bytes, p.server_copy_bw))
                .max(fully_arrived);
            let slack = transfer_ns(p.server_sockbuf_bytes, p.server_copy_bw);
            t1.saturating_sub(slack)
                .max(fully_arrived + p.server_per_msg_ns)
        } else {
            fully_arrived + p.server_per_msg_ns
        } + self.slowdown_ns[s];
        let ctx = req.trace_ctx();
        // The engine sees the virtual service-gate time, so §5.1
        // lock-wait spans are parked and granted on the virtual clock.
        let effects = self.servers[s].handle_at(from, req_id, req, gate);
        if self.tracing {
            if let Some(cx) = ctx {
                // Ingest + queueing: first byte to service gate.
                self.traces.push(TraceSpan::server(cx, TrPhase::SrvQueue, self.now, gate, s as u32));
            }
        }
        for SrvEffect::Reply { to, req_id, resp, cost, trace, lock_wait } in effects {
            // Disk activity: synchronous pre-reads first, then buffered
            // writes (possibly throttled by the dirty limit).
            let t2 = if cost.disk_read_bytes > 0 || cost.disk_read_ops > 0 {
                self.disks[s].read(gate, cost.disk_read_bytes, cost.disk_read_ops)
            } else {
                gate
            };
            let t3 = if cost.disk_write_bytes > 0 {
                self.disks[s].write(t2, cost.disk_write_bytes)
            } else {
                t2
            };
            if self.tracing {
                if let Some(w) = lock_wait {
                    self.traces.push(w);
                }
                if let Some(cx) = trace {
                    // Disk service of this reply (for a woken waiter, the
                    // slice of the unlocking dispatch that served it).
                    self.traces.push(TraceSpan::server(cx, TrPhase::Service, gate, t3, s as u32));
                }
            }
            // Egress: CPU copy for the reply payload on the egress lane,
            // then the wire. Payload-free acks ride the socket directly.
            let out_bytes = resp.payload_bytes();
            let t4 = if out_bytes == 0 {
                t3
            } else {
                self.srv_res[s].cpu_out.acquire(t3, transfer_ns(out_bytes, p.server_copy_bw))
            };
            let wire = transfer_ns(resp.wire_size(), p.nic_bw);
            let t5 = self.srv_res[s].nic_out.acquire(t4, wire);
            let first = (t5 - wire) + p.nic_latency_ns;
            let fully_arrived = t5 + p.nic_latency_ns;
            self.queue.push(first, Ev::ClientArrive { c: to as usize, req_id, resp, fully_arrived });
        }
    }
}

/// One client's executor for one engine step: the virtual clock (fixed
/// within an event, so `plan`, `submit` and `deliver` take zero virtual
/// time), the client's modelled CPU and NIC, the sim-owned request
/// counter and the cluster's client-side registry.
struct SimIo<'a> {
    c: usize,
    now: u64,
    profile: &'a HwProfile,
    res: &'a mut NodeRes,
    queue: &'a mut EventQueue<Ev>,
    next_req: &'a mut u64,
    obs: &'a MetricsRegistry,
}

impl Executor for SimIo<'_> {
    fn now_ns(&mut self) -> u64 {
        self.now
    }

    fn send(&mut self, srv: ServerId, req: Request) -> Result<u64, CsarError> {
        let p = self.profile;
        let req_id = *self.next_req;
        *self.next_req += 1;
        let size = req.wire_size();
        let t0 = self.res.cpu.acquire(
            self.now,
            p.client_per_msg_ns + transfer_ns(req.payload_bytes(), p.client_copy_bw),
        );
        let wire = transfer_ns(size, p.nic_bw);
        let t1 = self.res.nic_out.acquire(t0, wire);
        // Cut-through: the first byte lands one latency after
        // serialization starts; the last byte at t1 + latency.
        let first = (t1 - wire) + p.nic_latency_ns;
        let fully_arrived = t1 + p.nic_latency_ns;
        let (s, from) = (srv as usize, self.c as u32);
        self.queue.push(first, Ev::ServerArrive { s, from, req_id, req, fully_arrived });
        Ok(req_id)
    }

    fn compute(&mut self, token: Token, bytes: u64) {
        let t = self.res.cpu.acquire(self.now, transfer_ns(bytes, self.profile.xor_bw));
        self.queue.push(t, Ev::ComputeDone { c: self.c, token });
    }

    fn note(&mut self, note: Note) {
        if let Note::Count(ctr, n) = note {
            self.obs.add(ctr, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csar_obs::trace::SpanId;
    use std::collections::HashMap;

    fn sim(servers: u32, clients: usize) -> SimCluster {
        SimCluster::new(HwProfile::test_profile(), servers, clients)
    }

    fn one_client_write(sim: &mut SimCluster, file: usize, total: u64, chunk: u64) -> RunStats {
        let ops: Vec<Op> = (0..total / chunk)
            .map(|i| Op::Write { file, off: i * chunk, len: chunk })
            .collect();
        sim.run_phase(vec![(0, ops)])
    }

    #[test]
    fn simulators_on_two_threads_count_only_their_own_ops() {
        // Both simulators finish their writes before either takes its
        // snapshot, so a shared registry would show the other's groups.
        let done = std::sync::Barrier::new(2);
        let run = |groups: u64| {
            let mut s = sim(5, 1);
            let f = s.create_file("f", Scheme::Raid5, 4096);
            let group = 4 * 4096;
            one_client_write(&mut s, f, groups * group, group);
            done.wait();
            s.metrics_snapshot().counter("wr_whole_groups")
        };
        std::thread::scope(|scope| {
            let a = scope.spawn(|| run(3));
            let b = scope.spawn(|| run(5));
            assert_eq!(a.join().unwrap(), 3);
            assert_eq!(b.join().unwrap(), 5);
        });
    }

    #[test]
    fn raid0_write_completes_and_scales_with_servers() {
        let mut bw = Vec::new();
        for n in [1u32, 2, 4] {
            let mut s = sim(n, 1);
            let f = s.create_file("f", Scheme::Raid0, 64 * 1024);
            let stats = one_client_write(&mut s, f, 64 << 20, 1 << 20);
            assert_eq!(stats.bytes_written, 64 << 20);
            bw.push(stats.write_mbps());
        }
        assert!(bw[1] > bw[0] * 1.4, "2 servers should beat 1: {bw:?}");
        assert!(bw[2] > bw[1] * 1.2, "4 servers should beat 2: {bw:?}");
    }

    #[test]
    fn raid1_write_slower_than_raid0() {
        // Large chunks (the paper's microbenchmark) so the doubled wire
        // bytes, not per-request overheads, dominate.
        let n = 4;
        let mut s = sim(n, 1);
        let f0 = s.create_file("r0", Scheme::Raid0, 64 * 1024);
        let f1 = s.create_file("r1", Scheme::Raid1, 64 * 1024);
        let b0 = one_client_write(&mut s, f0, 64 << 20, 4 << 20).write_mbps();
        let b1 = one_client_write(&mut s, f1, 64 << 20, 4 << 20).write_mbps();
        assert!(b1 < 0.62 * b0, "RAID1 {b1} should be ≈half of RAID0 {b0}");
        assert!(b1 > 0.40 * b0, "RAID1 {b1} should not fall below half of RAID0 {b0}");
    }

    #[test]
    fn raid5_full_stripe_close_to_raid0() {
        let n = 5u32;
        let unit = 64 * 1024u64;
        let group = (n as u64 - 1) * unit;
        let mut s = sim(n, 1);
        let f0 = s.create_file("r0", Scheme::Raid0, unit);
        let f5 = s.create_file("r5", Scheme::Raid5, unit);
        let b0 = one_client_write(&mut s, f0, 32 * group, group).write_mbps();
        let b5 = one_client_write(&mut s, f5, 32 * group, group).write_mbps();
        assert!(b5 < b0, "parity adds overhead");
        assert!(b5 > 0.6 * b0, "full-stripe RAID5 {b5} should be within ~40% of RAID0 {b0}");
    }

    #[test]
    fn small_writes_raid5_slower_than_hybrid() {
        // One-block writes into an existing file: RAID5 pays the RMW
        // round trips; Hybrid just appends two copies.
        let n = 5u32;
        let unit = 16 * 1024u64;
        let mut s = sim(n, 1);
        let f5 = s.create_file("r5", Scheme::Raid5, unit);
        let fh = s.create_file("hy", Scheme::Hybrid, unit);
        // Pre-create content.
        for f in [f5, fh] {
            one_client_write(&mut s, f, 4 << 20, 1 << 20);
        }
        let ops = |f: usize| -> Vec<Op> {
            (0..64u64).map(|i| Op::Write { file: f, off: i * unit, len: unit }).collect()
        };
        let b5 = s.run_phase(vec![(0, ops(f5))]).write_mbps();
        let bh = s.run_phase(vec![(0, ops(fh))]).write_mbps();
        assert!(bh > 1.3 * b5, "Hybrid {bh} should clearly beat RAID5 {b5} on small writes");
    }

    #[test]
    fn overwrite_of_evicted_file_slower_for_raid5() {
        let n = 4u32;
        let unit = 64 * 1024u64;
        let group = (n as u64 - 1) * unit;
        let mut s = sim(n, 1);
        let f = s.create_file("r5", Scheme::Raid5, unit);
        // Unaligned 1 MB writes → every write has partial groups.
        let ops: Vec<Op> = (0..32u64)
            .map(|i| Op::Write { file: f, off: i * (1 << 20) + group / 2, len: 1 << 20 })
            .collect();
        let initial = s.run_phase(vec![(0, ops.clone())]).write_mbps();
        let reads_before = s.disk_totals().disk_read_bytes;
        assert_eq!(reads_before, 0, "initial write should need no pre-reads");
        s.evict_file(f);
        let overwrite = s.run_phase(vec![(0, ops)]).write_mbps();
        assert!(
            overwrite < 0.8 * initial,
            "uncached overwrite {overwrite} should drop vs initial {initial}"
        );
        let reads_after = s.disk_totals().disk_read_bytes;
        assert!(reads_after > 0, "overwrite must pre-read old data and parity from disk");
    }

    #[test]
    fn cache_overflow_throttles_writes() {
        // Write 4× the server cache: sustained rate ≈ disk rate.
        let mut s = sim(1, 1);
        let f = s.create_file("big", Scheme::Raid0, 1 << 20);
        let total = 4 * s.profile.server_cache_bytes;
        let stats = one_client_write(&mut s, f, total, 1 << 20);
        let mbps = stats.write_mbps();
        let disk_mbps = s.profile.disk_write_bw / (1024.0 * 1024.0);
        assert!(mbps < disk_mbps * 1.6, "cache-overflowed rate {mbps} ≈ disk {disk_mbps}");
    }

    #[test]
    fn reads_after_write_hit_cache_and_are_fast() {
        let mut s = sim(4, 1);
        let f = s.create_file("f", Scheme::Raid0, 64 * 1024);
        one_client_write(&mut s, f, 16 << 20, 1 << 20);
        let ops: Vec<Op> =
            (0..16u64).map(|i| Op::Read { file: f, off: i << 20, len: 1 << 20 }).collect();
        let stats = s.run_phase(vec![(0, ops)]);
        assert_eq!(stats.bytes_read, 16 << 20);
        assert!(stats.read_mbps() > 20.0, "cached reads should be fast: {}", stats.read_mbps());
    }

    #[test]
    fn multiple_clients_aggregate_bandwidth() {
        let n = 4u32;
        let mut s = sim(n, 4);
        let f = s.create_file("shared", Scheme::Raid0, 64 * 1024);
        // Each client writes its own 32 MB region (perf-style), long
        // enough that steady-state rates dominate burst buffering.
        let phase: Phase = (0..4usize)
            .map(|c| {
                let base = c as u64 * (32 << 20);
                (c, (0..32u64).map(|i| Op::Write { file: f, off: base + (i << 20), len: 1 << 20 }).collect())
            })
            .collect();
        let multi = s.run_phase(phase).write_mbps();
        let mut s1 = sim(n, 1);
        let f1 = s1.create_file("solo", Scheme::Raid0, 64 * 1024);
        let solo = one_client_write(&mut s1, f1, 32 << 20, 1 << 20).write_mbps();
        assert!(multi > solo * 1.15, "4 clients {multi} should beat 1 client {solo}");
        // Aggregate stays near the server-side capacity (4 × 25 MB/s),
        // not the sum of client links.
        assert!(multi < 160.0, "aggregate {multi} bounded by server ingest");
    }

    #[test]
    fn degraded_reads_cost_more_than_healthy() {
        let n = 4u32;
        let unit = 64 * 1024u64;
        let mut s = sim(n, 1);
        for scheme in [Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid] {
            let f = s.create_file(scheme.label(), scheme, unit);
            one_client_write(&mut s, f, 16 << 20, 1 << 20);
            let reads: Vec<Op> =
                (0..16u64).map(|i| Op::Read { file: f, off: i << 20, len: 1 << 20 }).collect();
            let healthy = s.run_phase(vec![(0, reads.clone())]).read_mbps();
            s.fail_server(1);
            let degraded = s.run_phase(vec![(0, reads)]).read_mbps();
            s.restore_server();
            assert!(degraded < healthy, "{scheme:?}: {degraded} < {healthy}");
            assert!(degraded > 0.3 * healthy, "{scheme:?} should degrade gracefully");
        }
    }

    #[test]
    fn op_overhead_serializes_client_time() {
        let mut s = sim(4, 1);
        let f = s.create_file("f", Scheme::Raid0, 64 * 1024);
        let fast = one_client_write(&mut s, f, 8 << 20, 1 << 20).duration_ns;
        let mut s2 = sim(4, 1);
        s2.set_op_overhead(10_000_000); // 10 ms per op, 8 ops
        let f2 = s2.create_file("f", Scheme::Raid0, 64 * 1024);
        let slow = one_client_write(&mut s2, f2, 8 << 20, 1 << 20).duration_ns;
        assert!(slow >= fast + 8 * 10_000_000, "overhead must be serialized: {fast} -> {slow}");
    }

    #[test]
    fn settle_disks_clears_backlog() {
        let mut s = sim(1, 1);
        let f = s.create_file("big", Scheme::Raid0, 1 << 20);
        // Exceed the dirty limit so a backlog exists.
        let total = 2 * s.profile.dirty_limit_bytes;
        one_client_write(&mut s, f, total, 1 << 20);
        let before = s.run_phase(vec![(0, vec![Op::Write { file: f, off: 0, len: 1 << 20 }])]);
        s.settle_disks();
        let after = s.run_phase(vec![(0, vec![Op::Write { file: f, off: 1 << 20, len: 1 << 20 }])]);
        assert!(after.duration_ns <= before.duration_ns, "settled writes are no slower");
        assert_eq!(after.bytes_written, 1 << 20);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut s = sim(3, 2);
            let f = s.create_file("f", Scheme::Hybrid, 32 * 1024);
            let phase: Phase = (0..2usize)
                .map(|c| {
                    (c, (0..10u64)
                        .map(|i| Op::Write { file: f, off: (c as u64 * 10 + i) * 100_000, len: 70_000 })
                        .collect())
                })
                .collect();
            s.run_phase(phase).duration_ns
        };
        assert_eq!(run(), run());
    }

    /// Tracing on the virtual clock: two identical runs emit
    /// bit-identical span streams, every span carries a known phase, and
    /// every child interval nests inside its parent's (the property the
    /// Chrome-trace exporter relies on).
    #[test]
    fn tracing_is_deterministic_and_spans_nest() {
        let run = || {
            let mut s = sim(5, 2);
            s.set_tracing(true);
            let f = s.create_file("f", Scheme::Raid5, 32 * 1024);
            // Overlapping partial writes on a shared stripe so §5.1
            // lock-wait spans show up too.
            let phase: Phase = (0..2usize)
                .map(|c| {
                    (c, (0..6u64)
                        .map(|i| Op::Write { file: f, off: i * 32 * 1024, len: 32 * 1024 })
                        .collect())
                })
                .collect();
            s.run_phase(phase);
            let spans = s.take_traces();
            s.set_tracing(false);
            spans
        };
        let (a, b) = (run(), run());
        assert!(!a.is_empty(), "tracing must emit spans");
        assert_eq!(a, b, "virtual-clock traces must replay bit-identically");

        use csar_obs::trace::Phase as P;
        assert!(a.iter().any(|s| s.phase == P::Op));
        assert!(a.iter().any(|s| s.phase == P::WireRtt));
        assert!(a.iter().any(|s| s.phase == P::SrvQueue));
        assert!(a.iter().any(|s| s.phase == P::Service));
        assert!(a.iter().any(|s| s.phase == P::LockWait), "shared stripe must park a waiter");

        let by_id: HashMap<u64, &TraceSpan> = a.iter().map(|s| (s.span.0, s)).collect();
        let mut checked = 0;
        for s in &a {
            if s.parent == SpanId::NONE {
                continue;
            }
            let p = by_id.get(&s.parent.0).expect("parent span must be emitted");
            assert!(s.start_ns >= p.start_ns, "{:?} starts before parent {:?}", s, p);
            assert!(s.end_ns() <= p.end_ns(), "{:?} ends after parent {:?}", s, p);
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn lock_contention_counted_under_shared_stripe() {
        let n = 6u32;
        let unit = 64 * 1024u64;
        let mut s = sim(n, 5);
        let f = s.create_file("shared", Scheme::Raid5, unit);
        // Pre-create one group.
        s.run_phase(vec![(0, vec![Op::Write { file: f, off: 0, len: (n as u64 - 1) * unit }])]);
        // 5 clients write distinct blocks of the same stripe (Fig. 3).
        let phase: Phase = (0..5usize)
            .map(|c| {
                (c, (0..10u64).map(|_| Op::Write { file: f, off: c as u64 * unit, len: unit }).collect())
            })
            .collect();
        s.run_phase(phase);
        let (contended, acquired) = s.lock_contention();
        assert_eq!(acquired, 50);
        assert!(contended > 0, "5 concurrent writers on one stripe must contend");
    }
}
