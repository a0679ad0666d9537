//! The live executor of the completion engine, and the client API.
//!
//! Each operation runs [`csar_core::client::engine::OpEngine`] — the
//! engine the simulator runs too — over a private reply mailbox, so any
//! number of operations can be in flight on one client. This module
//! supplies the mailbox transport: sends, a wait until the engine's
//! next deadline, `ServerDown` answers for failed servers
//! (issued and delivered like any reply), the `eng_*` counters and the
//! flight recorder.

use crate::deploy::Inner;
use crate::transport::{Mailbox, MgrMsg, ReplySender, ServerMsg};
use csar_core::client::engine::{EngineConfig, Executor, Note, OpEngine};
use csar_core::client::{Completion, Effect, OpDriver, OpOutput, ReadDriver, Token, WriteDriver};
use csar_core::manager::{FileMeta, MgrRequest, MgrResponse};
use csar_core::proto::{ClientId, ReqHeader, Request, Response, Scheme, ServerId};
use csar_core::{CsarError, Layout};
use csar_obs::trace::next_trace_id;
use csar_obs::{Ctr, Gauge, Hist, MetricsRegistry};
use csar_store::{Payload, StorageReport};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub use csar_core::client::engine::OpStats;

/// Transport tuning for client operations. Set cluster-wide via
/// [`crate::Cluster::set_transport_config`] (or just the deadline via
/// [`crate::Cluster::set_reply_timeout`]).
#[derive(Clone, Copy, Debug)]
pub struct TransportConfig {
    /// Maximum requests one operation keeps in flight per server.
    /// Transmission is strict FIFO: a head-of-line request whose server
    /// is at the window waits, preserving the drivers' issue-order
    /// contract (data writes before the unlock, §5.1).
    pub window: u32,
    /// Base per-request reply deadline. `Duration::MAX` never expires.
    pub reply_timeout: Duration,
    /// Extra attempts for idempotent (read-class) requests.
    pub retries: u32,
    /// Deadline multiplier applied on each retry attempt.
    pub backoff: u32,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self { window: 8, reply_timeout: Duration::from_secs(60), retries: 2, backoff: 2 }
    }
}

/// A client's private connection state: request-id allocator over the
/// shared cluster transport. Carries no lock — each operation owns a
/// private reply mailbox, so concurrent operations per handle are
/// fine.
pub(crate) struct Handle {
    inner: Arc<Inner>,
    id: ClientId,
    next_req: AtomicU64,
}

/// One operation's side of the transport: the engine's [`Executor`].
struct Wire<'h> {
    h: &'h Handle,
    /// Where the servers send this op's replies.
    tx: ReplySender,
    /// Computes the driver already did, to be reported back.
    computed: VecDeque<Token>,
}

impl Executor for Wire<'_> {
    fn now_ns(&mut self) -> u64 {
        self.h.inner.epoch.elapsed().as_nanos() as u64
    }

    fn send(&mut self, srv: ServerId, req: Request) -> Result<u64, CsarError> {
        let req_id = self.h.next_req.fetch_add(1, Ordering::Relaxed);
        if self.h.inner.down[srv as usize].load(Ordering::SeqCst) {
            // A failed server answers at once, through the same mailbox.
            self.tx.push((req_id, Response::Err(CsarError::ServerDown(srv)), None));
        } else {
            let (from, reply_to) = (self.h.id, Arc::clone(&self.tx));
            self.h.inner.inboxes[srv as usize].push(ServerMsg::Req { from, req_id, req, reply_to });
        }
        self.h.obs().inc(Ctr::EngIssued);
        self.h.obs().gauge_add(Gauge::EngInFlight, 1);
        Ok(req_id)
    }

    fn compute(&mut self, token: Token, _bytes: u64) {
        self.computed.push_back(token);
    }

    /// Keeps `eng_issued == eng_delivered + eng_retried_abandoned +
    /// eng_timeouts + eng_abandoned` at every quiesce point.
    fn note(&mut self, note: Note) {
        let obs = self.h.obs();
        let (ended, n) = match note {
            Note::WindowStall(ns) => {
                obs.observe(Hist::WindowStallNs, ns);
                return obs.inc(Ctr::EngWindowStalls);
            }
            Note::Delivered { rtt_ns, lock_read } => {
                obs.observe(Hist::ReqRttNs, rtt_ns);
                if lock_read {
                    obs.observe(Hist::LockWaitNs, rtt_ns);
                }
                (Ctr::EngDelivered, 1)
            }
            Note::Retried => (Ctr::EngRetriedAbandoned, 1),
            Note::TimedOut => (Ctr::EngTimeouts, 1),
            Note::Abandoned(n) => (Ctr::EngAbandoned, n),
            Note::Count(ctr, n) => return obs.add(ctr, n),
        };
        obs.add(ended, n);
        obs.gauge_sub(Gauge::EngInFlight, n);
    }
}

/// A raw request batch as a driver: everything is issued at `Begin`,
/// and the op is done once every reply is in its request's slot (the
/// caller reads the slots; the op's output value is not used). A reply
/// for an unknown or already filled slot fails the op. After `Done` the
/// driver is inert.
struct Batch {
    reqs: Vec<(ServerId, Request)>,
    slots: Vec<Option<Response>>,
    done: bool,
}

impl OpDriver for Batch {
    fn poll(&mut self, c: Completion) -> Vec<Effect> {
        let mut effects: Vec<Effect> = Vec::new(); // alloc-ok: empty, no heap
        if self.done {
            return effects;
        }
        match c {
            Completion::Begin => {
                let sends = self.reqs.drain(..).enumerate();
                effects.extend(sends.map(|(i, (srv, req))| Effect::Send { token: i as Token, srv, req }));
            }
            Completion::Reply { token, resp } => match self.slots.get_mut(token as usize) {
                Some(slot @ None) => *slot = Some(resp),
                _ => {
                    self.done = true;
                    let e = format!("unknown or duplicate reply for batch slot {token}");
                    effects.push(Effect::Done(Err(CsarError::Transport(e))));
                    return effects;
                }
            },
            Completion::ComputeDone { .. } => {}
        }
        if self.slots.iter().all(Option::is_some) {
            self.done = true;
            effects.push(Effect::Done(Ok(OpOutput::Written { bytes: 0 })));
        }
        effects
    }
}

impl Handle {
    pub(crate) fn new(inner: Arc<Inner>) -> Self {
        let id = inner.next_client.fetch_add(1, Ordering::SeqCst);
        Self { inner, id, next_req: AtomicU64::new(1) }
    }

    fn fresh(&self) -> Handle {
        Handle::new(Arc::clone(&self.inner))
    }

    fn transport(&self) -> TransportConfig {
        *self.inner.transport.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cluster-wide client-side registry (engine and cleaner
    /// metrics; the servers each keep their own).
    pub(crate) fn obs(&self) -> &MetricsRegistry {
        &self.inner.obs
    }

    /// Drive one operation to completion: feed the engine finished
    /// computes first, then replies off the wire until its next
    /// deadline (one past what `Instant` can hold waits forever). A
    /// `traced` op (while the cluster's tracing gate is on) gets one
    /// causal tree — client phases, wire RTTs and server piggybacks —
    /// retained in the flight recorder, which is dumped automatically if
    /// the op dies with [`CsarError::Timeout`].
    pub(crate) fn run_op(
        &self,
        driver: &mut dyn OpDriver,
        traced: bool,
    ) -> Result<(OpOutput, OpStats), CsarError> {
        let mut wire = Wire { h: self, tx: Arc::new(Mailbox::new()), computed: VecDeque::new() };
        let trace = (traced && self.inner.obs.tracing_enabled()).then(next_trace_id);
        let t = self.transport();
        let timeout_ns = u64::try_from(t.reply_timeout.as_nanos()).unwrap_or(u64::MAX);
        let cfg = EngineConfig { window: t.window, timeout_ns, retries: t.retries, backoff: t.backoff, barrier: false };
        let mut eng = OpEngine::default();
        let mut out = eng.begin(cfg, trace, driver, &mut wire);
        let res = loop {
            if let Some(res) = out {
                break res;
            }
            if let Some(token) = wire.computed.pop_front() {
                out = eng.compute_done(token, driver, &mut wire);
                continue;
            }
            let deadline =
                eng.next_deadline().and_then(|at| self.inner.epoch.checked_add(Duration::from_nanos(at)));
            out = match wire.tx.pop(deadline) {
                Some((req_id, resp, batch)) => {
                    eng.reply(req_id, resp, batch.as_deref().unwrap_or(&[]), driver, &mut wire)
                }
                None => eng.expire(&mut wire),
            };
        };
        // alloc-ok: empty, no heap; only a traced op fills it, for the flight recorder
        let mut spans = Vec::new();
        let stats = eng.finish(&mut wire, &mut spans);
        if !spans.is_empty() {
            for s in &spans {
                self.inner.obs.record_trace(s);
            }
            self.inner.record_flight(spans);
            if let Err(CsarError::Timeout { server, .. }) = &res {
                let dump = self.inner.dump_flight("timeout", Some(*server));
                eprintln!(
                    "csar: op timed out on server {server}; flight recorder dumped \
                     ({} bytes, retained via Cluster::last_flight_dump)",
                    dump.len()
                );
            }
        }
        res.map(|out| (out, stats))
    }

    /// Send a batch of requests and gather replies in request order.
    /// Requests to failed servers are answered with `ServerDown` locally.
    /// Raw batches (stats scrapes, maintenance, rebuild) are not traced.
    pub(crate) fn send_batch(
        &self,
        batch: Vec<(ServerId, Request)>,
    ) -> Result<Vec<Response>, CsarError> {
        let slots = batch.iter().map(|_| None).collect();
        let mut d = Batch { reqs: batch, slots, done: false };
        self.run_op(&mut d, false)?;
        d.slots
            .into_iter()
            .map(|s| s.ok_or_else(|| CsarError::Transport("batch reply slot unfilled".into())))
            .collect()
    }

    /// Send one request and return its reply.
    pub(crate) fn send_one(&self, srv: ServerId, req: Request) -> Result<Response, CsarError> {
        self.send_batch(vec![(srv, req)])?
            .pop()
            .ok_or_else(|| CsarError::Transport("empty batch reply".into()))
    }

    /// A manager round trip, counted in [`Ctr::MgrRequests`]. A reply
    /// timeout past what `Instant` can hold waits forever.
    pub(crate) fn mgr(&self, req: MgrRequest) -> Result<MgrResponse, CsarError> {
        let reply_to = Arc::new(Mailbox::new());
        self.inner.mgr_inbox.push(MgrMsg::Req { req, reply_to: Arc::clone(&reply_to) });
        self.inner.obs.inc(Ctr::MgrRequests);
        let deadline = Instant::now().checked_add(self.transport().reply_timeout);
        reply_to.pop(deadline).ok_or_else(|| CsarError::Transport("manager timed out".into()))
    }

    fn servers(&self) -> u32 {
        self.inner.servers
    }

    fn failed(&self) -> Option<ServerId> {
        self.inner
            .down
            .iter()
            .position(|d| d.load(Ordering::SeqCst))
            .map(|i| i as u32)
    }
}

/// A client of the cluster: creates and opens files.
///
/// Each client (and each [`File`]) owns an independent request-id space;
/// operations never share state, so one client — or one open file — can
/// be used from many threads concurrently.
pub struct ClusterClient {
    handle: Handle,
}

impl ClusterClient {
    pub(crate) fn new(handle: Handle) -> Self {
        Self { handle }
    }

    pub(crate) fn handle(&self) -> &Handle {
        &self.handle
    }

    /// Create a file striped over all servers with the given scheme and
    /// stripe unit.
    pub fn create(&self, name: &str, scheme: Scheme, stripe_unit: u64) -> Result<File, CsarError> {
        let layout = Layout::new(self.handle.servers(), stripe_unit);
        let meta = self
            .handle
            .mgr(MgrRequest::Create { name: name.into(), scheme, layout })?
            .into_meta()?;
        Ok(File::new(self.handle.fresh(), meta))
    }

    /// Open an existing file.
    pub fn open(&self, name: &str) -> Result<File, CsarError> {
        let meta = self.handle.mgr(MgrRequest::Open { name: name.into() })?.into_meta()?;
        Ok(File::new(self.handle.fresh(), meta))
    }

    /// All file metadata known to the manager.
    pub fn list_files(&self) -> Result<Vec<FileMeta>, CsarError> {
        match self.handle.mgr(MgrRequest::List)? {
            MgrResponse::List(files) => Ok(files),
            MgrResponse::Err(e) => Err(e),
            other => Err(CsarError::Protocol(format!("expected List, got {other:?}"))),
        }
    }

    /// Send a raw protocol request to one I/O server — an escape hatch
    /// for tooling, fault injection and tests. Normal I/O should use
    /// [`File`].
    pub fn send_raw(&self, srv: ServerId, req: Request) -> Result<Response, CsarError> {
        self.handle.send_one(srv, req)
    }

    /// Remove a file's metadata (its server-side storage is left to the
    /// harness to wipe; PVFS-era semantics).
    pub fn remove(&self, name: &str) -> Result<(), CsarError> {
        expect_ok(self.handle.mgr(MgrRequest::Remove { name: name.into() })?)
    }
}

/// Unwrap a manager reply that carries nothing but success.
fn expect_ok(resp: MgrResponse) -> Result<(), CsarError> {
    match resp {
        MgrResponse::Ok => Ok(()),
        MgrResponse::Err(e) => Err(e),
        other => Err(CsarError::Protocol(format!("expected Ok, got {other:?}"))),
    }
}

/// An open CSAR file with a blocking positional API. Safe to share
/// across threads; operations run concurrently (no per-file lock).
///
/// Data operations go straight to the I/O servers. The metadata manager
/// hears from a `File` only when a write extends the file past `size`.
pub struct File {
    handle: Handle,
    /// The metadata the manager returned on create/open. Everything but
    /// `size` is immutable; that field keeps the size at open and is
    /// never read (see `size` below).
    meta: FileMeta,
    /// A lower bound of the manager's recorded size. It starts at the
    /// size the manager returned and is raised only after the manager
    /// acknowledges a `SetSize`. The manager's `SetSize` is a monotonic
    /// max and handles are never reused, so a write ending at or below
    /// this bound has nothing to tell the manager.
    size: AtomicU64,
    stats: Mutex<OpStats>,
}

impl File {
    fn new(handle: Handle, meta: FileMeta) -> Self {
        let size = AtomicU64::new(meta.size);
        Self { handle, meta, size, stats: Mutex::new(OpStats::default()) }
    }

    /// Snapshot of the file's metadata.
    pub fn meta(&self) -> FileMeta {
        FileMeta { size: self.size(), ..self.meta.clone() }
    }

    /// Current logical size, as far as this handle knows: the size at
    /// open, raised by every extending write through it.
    pub fn size(&self) -> u64 {
        self.size.load(Ordering::Relaxed)
    }

    /// Accumulated per-operation transport instrumentation for reads
    /// and writes issued through this handle.
    pub fn op_stats(&self) -> OpStats {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record(&self, stats: &OpStats) {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner).merge(stats);
    }

    /// Send the request `req` builds for this file to every server in
    /// turn; the replies in server order.
    fn on_every_server(&self, req: impl Fn(ReqHeader) -> Request) -> Result<Vec<Response>, CsarError> {
        let hdr = ReqHeader::new(self.meta.fh, self.meta.layout, self.meta.scheme);
        (0..self.handle.servers()).map(|srv| self.handle.send_one(srv, req(hdr))).collect()
    }

    /// Write `data` at `off`.
    ///
    /// Copies the borrowed slice once into an owned payload; callers
    /// that already hold owned buffers should use
    /// [`File::write_vectored`] or [`File::write_payload`], which don't.
    pub fn write_at(&self, off: u64, data: &[u8]) -> Result<u64, CsarError> {
        // alloc-ok: the borrowed-slice API must copy at the ownership boundary
        self.write_payload(off, Payload::from_vec(data.to_vec()))
    }

    /// Write a sequence of owned chunks at `off` without flattening:
    /// the chunks travel through the write driver, parity compute and
    /// server stores as one gathered payload, never copied into a
    /// contiguous staging buffer.
    pub fn write_vectored(&self, off: u64, chunks: &[csar_store::Bytes]) -> Result<u64, CsarError> {
        let parts: Vec<Payload> = chunks.iter().map(|c| Payload::Data(c.clone())).collect();
        self.write_payload(off, Payload::concat(&parts))
    }

    /// Write a [`Payload`] at `off` (phantom payloads keep accounting
    /// without storing bytes — used by size-only workload harnesses).
    pub fn write_payload(&self, off: u64, payload: Payload) -> Result<u64, CsarError> {
        let len = payload.len();
        if len == 0 {
            return Ok(0);
        }
        let t0 = Instant::now();
        // Like reads, writes proceed around a fail-stopped server where
        // the scheme's redundancy permits (see WriteDriver::new_degraded).
        let failed = self.handle.failed();
        let mut driver = WriteDriver::new_degraded(&self.meta, off, payload, failed);
        let (out, stats) = self.handle.run_op(&mut driver, true)?;
        self.record(&stats);
        let OpOutput::Written { bytes } = out else {
            return Err(CsarError::Protocol("write returned a read output".into()));
        };
        // Report a new EOF to the manager (PVFS metadata update). Only a
        // write past the acknowledged size can raise the manager's max.
        let end = off + len;
        if end > self.size() {
            expect_ok(self.handle.mgr(MgrRequest::SetSize { fh: self.meta.fh, size: end })?)?;
            self.size.fetch_max(end, Ordering::Relaxed);
        }
        self.handle.obs().observe(Hist::OpWriteNs, t0.elapsed().as_nanos() as u64);
        Ok(bytes)
    }

    /// Read `len` bytes at `off`. Falls back to a degraded read when a
    /// server is failed; zero-fills unwritten ranges.
    pub fn read_at(&self, off: u64, len: u64) -> Result<Vec<u8>, CsarError> {
        let p = self.read_payload(off, len)?;
        p.to_flat_vec().ok_or_else(|| {
            CsarError::Protocol("file contains phantom data; use read_payload".into())
        })
    }

    /// Read `len` bytes at `off` as a [`Payload`].
    pub fn read_payload(&self, off: u64, len: u64) -> Result<Payload, CsarError> {
        if len == 0 {
            return Ok(Payload::zeros(0));
        }
        let t0 = Instant::now();
        let failed = self.handle.failed();
        let mut driver = ReadDriver::new(&self.meta, off, len, failed);
        let (out, stats) = self.handle.run_op(&mut driver, true)?;
        self.handle.obs().observe(Hist::OpReadNs, t0.elapsed().as_nanos() as u64);
        self.record(&stats);
        Ok(out.into_payload())
    }

    /// Per-server storage usage for this file (paper Table 2).
    pub fn storage_report(&self) -> Result<StorageReport, CsarError> {
        let replies = self.on_every_server(|hdr| Request::GetUsage { hdr })?;
        let usage = replies.into_iter().map(|resp| match resp {
            Response::Usage { usage } => Ok(usage),
            Response::Err(e) => Err(e),
            other => Err(CsarError::Protocol(format!("expected Usage, got {other:?}"))),
        });
        Ok(StorageReport::new(usage.collect::<Result<_, _>>()?))
    }

    /// Drop this file from every server's page-cache model (the paper's
    /// "contents have been removed from the cache" overwrite setup).
    pub fn evict_caches(&self) -> Result<(), CsarError> {
        let replies = self.on_every_server(|hdr| Request::EvictFile { hdr })?;
        replies.into_iter().try_for_each(|r| r.into_done().map(drop))
    }

    /// Run the §6.7 overflow compaction on every server.
    pub fn compact_overflow(&self) -> Result<(), CsarError> {
        let replies = self.on_every_server(|hdr| Request::CompactOverflow { hdr })?;
        replies.into_iter().try_for_each(|r| r.into_done().map(drop))
    }
}
