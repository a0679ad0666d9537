//! The live executor of the completion engine, and the client API.
//!
//! Each operation runs [`csar_core::client::engine::OpEngine`] — the
//! engine the simulator runs too — over a private reply mailbox, so any
//! number of operations can be in flight on one client. This module
//! supplies the mailbox transport: sends, a wait until the engine's
//! next deadline, `ServerDown` answers for failed servers
//! (issued and delivered like any reply), the `eng_*` counters and the
//! flight recorder. After each engine call the op rings every server
//! worker it queued requests to except the last, which it serves on its
//! own thread unless another thread already is (`node.rs`), so a round
//! trip to an idle worker costs no thread handoff.

use crate::deploy::Inner;
use crate::transport::{Mailbox, MgrMsg, ReplySender, ServerMsg};
use csar_core::client::engine::{EngineConfig, Executor, Note, OpEngine};
use csar_core::client::maintain::{Scrub, ScrubReport};
use csar_core::client::waves::{Wave, WaveTask, Waves};
use csar_core::client::{Effect, OpDriver, OpOutput, ReadDriver, Token, WriteDriver};
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
/// shared cluster transport. Each operation owns a private engine and
/// reply mailbox, so concurrent operations per handle are fine; the one
/// lock guards the pair a quiet op left for the next to reuse.
pub(crate) struct Handle {
    inner: Arc<Inner>,
    id: ClientId,
    next_req: AtomicU64,
    /// An engine and reply mailbox no reply can still reach.
    spare: Mutex<Option<(OpEngine, ReplySender)>>,
}

/// One operation's side of the transport: the engine's [`Executor`].
struct Wire<'h> {
    h: &'h Handle,
    /// Where the servers send this op's replies.
    tx: ReplySender,
    /// Computes the driver already did, to be reported back.
    computed: VecDeque<Token>,
    /// Bit `w` set: a request is queued for worker `w` but not rung.
    unrung: u64,
}

impl Wire<'_> {
    /// Wake each worker a request was queued to since the last ring,
    /// once however many it got, except the last: this op's thread
    /// serves that one itself, unless another thread already is (see
    /// `node.rs`). On one CPU there is one worker, so a round trip
    /// costs no thread handoff; a fan-out's other workers run in
    /// parallel meanwhile.
    fn ring(&mut self) {
        if self.unrung == 0 {
            return;
        }
        let last = (u64::BITS - 1 - self.unrung.leading_zeros()) as usize;
        self.unrung ^= 1 << last;
        while self.unrung != 0 {
            let w = self.unrung.trailing_zeros();
            self.unrung &= self.unrung - 1;
            self.h.inner.inboxes[w as usize].ring();
        }
        let inner = &self.h.inner;
        inner.workers[last].serve_inline(&inner.inboxes[last], &self.tx);
    }
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
            // Queued unrung: `run_op` rings once the engine call is over.
            // A traced request's server queue wait starts here.
            let queued_ns = if req.trace_ctx().is_some() { self.now_ns() } else { 0 };
            let (from, reply_to) = (self.h.id, Arc::clone(&self.tx));
            let w = self.h.inner.inbox_of(srv);
            let msg = ServerMsg::Req { srv, from, req_id, req, reply_to, queued_ns };
            if !self.h.inner.inboxes[w].queue(msg) {
                return Err(CsarError::Transport(format!("server {srv} is shut down")));
            }
            self.unrung |= 1 << w;
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
            Note::Observe(hist, ns) => return obs.observe(hist, ns),
        };
        obs.add(ended, n);
        obs.gauge_sub(Gauge::EngInFlight, n);
    }
}

impl Handle {
    pub(crate) fn new(inner: Arc<Inner>) -> Self {
        let id = inner.next_client.fetch_add(1, Ordering::SeqCst);
        Self { inner, id, next_req: AtomicU64::new(1), spare: Mutex::new(None) }
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
    /// deadline (one past what `Instant` can hold waits forever). After
    /// every engine call, each worker it queued requests to is rung
    /// once. A `traced` op (while the cluster's tracing flag is on) gets
    /// one causal tree — client phases, wire RTTs and server piggybacks
    /// — retained in the flight recorder, which is dumped automatically
    /// if the op dies with [`CsarError::Timeout`].
    pub(crate) fn run_op(
        &self,
        driver: &mut dyn OpDriver,
        traced: bool,
    ) -> Result<(OpOutput, OpStats), CsarError> {
        let spare = self.spare.lock().unwrap_or_else(PoisonError::into_inner).take();
        let (mut eng, tx) = spare.unwrap_or_else(|| (OpEngine::default(), Arc::new(Mailbox::new())));
        let mut wire = Wire { h: self, tx, computed: VecDeque::new(), unrung: 0 };
        let trace = (traced && self.inner.tracing.load(Ordering::Relaxed)).then(next_trace_id);
        let t = self.transport();
        let timeout_ns = u64::try_from(t.reply_timeout.as_nanos()).unwrap_or(u64::MAX);
        let cfg = EngineConfig { window: t.window, timeout_ns, retries: t.retries, backoff: t.backoff, barrier: false };
        let mut out = eng.begin(cfg, trace, driver, &mut wire);
        let res = loop {
            wire.ring();
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
        if eng.quiet() {
            // No reply can reach this mailbox any more, so the next op
            // may reuse it; otherwise both go, with any late reply.
            *self.spare.lock().unwrap_or_else(PoisonError::into_inner) = Some((eng, wire.tx));
        }
        if !spans.is_empty() {
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

    /// Run `task` to its end as one untraced op and hand it back,
    /// results and all. Requests to failed servers are answered with
    /// `ServerDown` locally.
    pub(crate) fn run_task<T: WaveTask>(&self, task: T) -> Result<T, CsarError> {
        let mut driver = Waves::new(task);
        self.run_op(&mut driver, false)?;
        Ok(driver.task)
    }

    /// Send `reqs` as one wave; their replies in request order.
    pub(crate) fn send_wave(&self, reqs: Wave) -> Result<Vec<Response>, CsarError> {
        let (mut reqs, mut replies) = (Some(reqs), Vec::new()); // alloc-ok: empty, no heap; raw batches are cold
        let task = |got: Vec<Response>, _: &mut Vec<Effect>| {
            replies = got;
            Ok(reqs.take().unwrap_or_default())
        };
        self.run_op(&mut Waves::new(task), false)?;
        Ok(replies)
    }

    /// A manager round trip, counted in [`Ctr::MgrRequests`]. A reply
    /// timeout past what `Instant` can hold waits forever.
    pub(crate) fn mgr(&self, req: MgrRequest) -> Result<MgrResponse, CsarError> {
        let reply_to = Arc::new(Mailbox::new());
        if !self.inner.mgr_inbox.push(MgrMsg::Req { req, reply_to: Arc::clone(&reply_to) }) {
            return Err(CsarError::Transport("the manager is shut down".into()));
        }
        self.inner.obs.inc(Ctr::MgrRequests);
        let deadline = Instant::now().checked_add(self.transport().reply_timeout);
        reply_to.pop(deadline).ok_or_else(|| CsarError::Transport("manager timed out".into()))
    }

    fn servers(&self) -> u32 {
        self.inner.servers
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
        let reply = self.handle.send_wave(vec![(srv, req)])?.pop();
        reply.ok_or_else(|| CsarError::Transport("raw request without a reply".into()))
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

    /// Send the request `req` builds for this file to every server, as
    /// one wave; the replies in server order.
    fn on_every_server(&self, req: impl Fn(ReqHeader) -> Request) -> Result<Vec<Response>, CsarError> {
        let hdr = ReqHeader::new(self.meta.fh, self.meta.layout, self.meta.scheme);
        self.handle.send_wave((0..self.handle.servers()).map(|srv| (srv, req(hdr))).collect())
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
        let failed = self.handle.inner.failed();
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
        let failed = self.handle.inner.failed();
        let mut driver = ReadDriver::new(&self.meta, off, len, failed);
        let (out, stats) = self.handle.run_op(&mut driver, true)?;
        self.handle.obs().observe(Hist::OpReadNs, t0.elapsed().as_nanos() as u64);
        self.record(&stats);
        Ok(out.into_payload())
    }

    /// Per-server storage usage for this file (paper Table 2).
    pub fn storage_report(&self) -> Result<StorageReport, CsarError> {
        let replies = self.on_every_server(|hdr| Request::GetUsage { hdr })?;
        Ok(StorageReport::new(replies.into_iter().map(Response::into_usage).collect::<Result<_, _>>()?))
    }

    /// Verify this file's parity groups and mirror blocks up to its size
    /// against its data, around a failed server (see
    /// [`csar_core::client::maintain::Scrub`]). No one may be writing the
    /// file meanwhile.
    pub fn scrub(&self) -> Result<ScrubReport, CsarError> {
        let scrub = Scrub::new(vec![self.meta()], self.handle.inner.failed());
        Ok(self.handle.run_task(scrub)?.report)
    }

    /// Run the §6.7 overflow compaction on every server.
    pub fn compact_overflow(&self) -> Result<(), CsarError> {
        let replies = self.on_every_server(|hdr| Request::CompactOverflow { hdr })?;
        replies.into_iter().try_for_each(|r| r.into_done().map(drop))
    }
}
