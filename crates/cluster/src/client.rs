//! Completion-driven client engine over the channel transport.
//!
//! Each operation runs a private submission/completion-queue pair (an
//! [`Engine`]): the core driver's `Send` effects enter the submission
//! queue, are transmitted within a per-server in-flight window, and
//! replies are delivered back to the driver *as they arrive* — out of
//! order, one `poll` per completion. A `Handle` carries no operation
//! lock and no shared reply channel, so any number of operations can be
//! in flight concurrently on one client.
//!
//! Every transmitted request gets a deadline. Idempotent (read-class)
//! requests are retried with exponential deadline backoff; anything
//! else — in particular `ParityReadLock`, where a missing reply usually
//! means the request is *parked* on a held lock, not lost — fails the
//! operation with [`CsarError::Timeout`] naming the unresponsive
//! server. Replies from a superseded (retried) attempt are dropped;
//! replies that match nothing at all surface as a transport error
//! rather than being silently ignored.

use crate::deploy::Inner;
use crate::transport::{MgrMsg, ReplyTrace, ServerMsg};
use csar_core::client::{Completion, Effect, OpDriver, OpOutput, ReadDriver, Token, WriteDriver};
use csar_core::manager::{FileMeta, MgrRequest, MgrResponse};
use csar_core::proto::{ClientId, ReqHeader, Request, Response, Scheme, ServerId};
use csar_core::{CsarError, Layout};
use csar_obs::trace::{next_span_id, next_trace_id, Phase, SpanId, TraceCtx, TraceId, TraceSpan};
use csar_obs::{Ctr, Gauge, Hist, MetricsRegistry};
use csar_store::{Payload, StorageReport};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

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
    /// Base per-request reply deadline.
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

/// Per-operation transport instrumentation, accumulated per [`File`]
/// (sums over operations unless noted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Operations merged into this record.
    pub ops: u64,
    /// Requests transmitted (retries included).
    pub requests: u64,
    /// Retry transmissions.
    pub retries: u64,
    /// Highest in-flight request count observed in any single operation.
    pub max_in_flight: u64,
    /// Time from operation start to its first reply (time-to-first-byte).
    pub ttfb_ns: u64,
    /// Time requests spent queued behind the per-server window.
    pub queue_stall_ns: u64,
    /// Wall-clock operation time.
    pub elapsed_ns: u64,
}

impl OpStats {
    fn merge(&mut self, one: &OpStats) {
        self.ops += one.ops;
        self.requests += one.requests;
        self.retries += one.retries;
        self.max_in_flight = self.max_in_flight.max(one.max_in_flight);
        self.ttfb_ns += one.ttfb_ns;
        self.queue_stall_ns += one.queue_stall_ns;
        self.elapsed_ns += one.elapsed_ns;
    }
}

/// May this request be transparently re-sent after a missed deadline?
/// Only side-effect-free reads qualify. `ParityReadLock` explicitly does
/// not: a slow grant usually means the request is parked behind another
/// client's critical section, and a second acquisition attempt could
/// double-lock the group.
fn retryable(req: &Request) -> bool {
    matches!(
        req,
        Request::ReadData { .. }
            | Request::ReadMirror { .. }
            | Request::ReadLatest { .. }
            | Request::ParityRead { .. }
            | Request::OverflowFetch { .. }
            | Request::DumpOverflowTable { .. }
            | Request::GetUsage { .. }
            | Request::OverflowQuery { .. }
            | Request::GetStats
    )
}

/// One transmitted request awaiting its reply.
struct Flight {
    token: Token,
    srv: ServerId,
    /// Kept only when a retry is still possible (read-class, attempts
    /// left); write payloads are never cloned.
    req: Option<Request>,
    first_sent: Instant,
    /// Transmit time of *this* attempt (`first_sent` is attempt 0's).
    sent: Instant,
    deadline: Instant,
    attempt: u32,
    /// §5.1 lock-read: its round trip includes the lock wait, so the
    /// reply also lands in [`Hist::LockWaitNs`]. Kept as a flag because
    /// non-retryable requests drop their `req`.
    lock_read: bool,
    /// When tracing, this attempt's wire-RTT span id — the trace context
    /// stamped on the request, which server-side spans parent under.
    /// [`SpanId::NONE`] when tracing is off.
    span: SpanId,
}

/// Per-operation causal tracer (DESIGN.md §15). Created only when
/// tracing is enabled, so the disabled hot path costs one relaxed load
/// per operation and allocates nothing. Each retry attempt gets its own
/// wire span stamped on the request, which makes a timed-out-then-
/// retried request show up as sibling attempts under the op root.
struct OpTracer {
    trace: TraceId,
    root: SpanId,
    /// The cluster-wide time origin shared with the server threads.
    epoch: Instant,
    spans: Vec<TraceSpan>,
}

impl OpTracer {
    fn new(epoch: Instant) -> Self {
        Self {
            trace: next_trace_id(),
            root: next_span_id(),
            epoch,
            spans: Vec::with_capacity(16),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished phase span under `parent` with a fresh id.
    fn push(&mut self, phase: Phase, parent: SpanId, start: Instant, end: Instant, aux: u64) -> SpanId {
        let span = next_span_id();
        self.push_as(span, phase, parent, start, end, aux);
        span
    }

    /// Record a finished phase span under `parent` with a pre-allocated
    /// id (an attempt span whose id was stamped on the wire earlier).
    fn push_as(
        &mut self,
        span: SpanId,
        phase: Phase,
        parent: SpanId,
        start: Instant,
        end: Instant,
        aux: u64,
    ) {
        self.spans.push(TraceSpan {
            trace: self.trace,
            span,
            parent,
            phase,
            start_ns: self.ns(start),
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            aux,
        });
    }
}

/// A client's private connection state: request-id allocator over the
/// shared cluster transport. Carries no lock — each operation owns a
/// private completion channel, so concurrent operations per handle are
/// fine.
pub(crate) struct Handle {
    inner: Arc<Inner>,
    id: ClientId,
    next_req: AtomicU64,
}

/// The per-operation submission/completion-queue pair.
struct Engine<'h> {
    h: &'h Handle,
    cfg: TransportConfig,
    tx: Sender<(u64, Response, ReplyTrace)>,
    rx: Receiver<(u64, Response, ReplyTrace)>,
    /// Submission queue, strict FIFO (see [`TransportConfig::window`]).
    /// The bool marks entries that were ever head-of-line blocked on a
    /// full per-server window (the window-stall metrics).
    sq: VecDeque<(Token, ServerId, Request, Instant, bool)>,
    /// Locally-generated completions (requests to down servers).
    local: VecDeque<(Token, Response)>,
    /// Outstanding requests by req_id.
    inflight: HashMap<u64, Flight>,
    per_server: Vec<u32>,
    /// req_ids abandoned by a retry; their late replies are dropped.
    superseded: HashSet<u64>,
    stats: OpStats,
    started: Instant,
    /// Present only while tracing is enabled *and* the caller opted in
    /// (core ops do; raw batches and metric scrapes don't).
    tracer: Option<OpTracer>,
}

impl<'h> Engine<'h> {
    fn new(h: &'h Handle, trace_op: bool) -> Self {
        let (tx, rx) = channel();
        let tracer = if trace_op && h.inner.obs.tracing_enabled() {
            Some(OpTracer::new(h.inner.epoch))
        } else {
            None
        };
        Self {
            h,
            cfg: h.transport(),
            tx,
            rx,
            sq: VecDeque::new(),
            local: VecDeque::new(),
            inflight: HashMap::new(),
            per_server: vec![0; h.inner.servers as usize],
            superseded: HashSet::new(),
            stats: OpStats { ops: 1, ..OpStats::default() },
            started: Instant::now(),
            tracer,
        }
    }

    fn obs(&self) -> &MetricsRegistry {
        &self.h.inner.obs
    }

    fn submit(&mut self, token: Token, srv: ServerId, req: Request) {
        self.sq.push_back((token, srv, req, Instant::now(), false));
    }

    /// Transmit submission-queue heads while their servers have window
    /// space. Requests to down servers are answered locally.
    fn pump(&mut self) -> Result<(), CsarError> {
        loop {
            let Some((_, srv, _, _, _)) = self.sq.front() else { break };
            let srv = *srv;
            if self.h.inner.down[srv as usize].load(Ordering::SeqCst) {
                if let Some((token, ..)) = self.sq.pop_front() {
                    self.local.push_back((token, Response::Err(CsarError::ServerDown(srv))));
                }
                continue;
            }
            if self.per_server[srv as usize] >= self.cfg.window {
                // Head-of-line waits; FIFO order is the contract. Mark it
                // so the stall is counted once when it finally transmits.
                if let Some(head) = self.sq.front_mut() {
                    head.4 = true;
                }
                break;
            }
            let Some((token, srv, req, queued, was_blocked)) = self.sq.pop_front() else { break };
            let now = Instant::now();
            self.stats.queue_stall_ns += queued.elapsed().as_nanos() as u64;
            if was_blocked {
                self.obs().inc(Ctr::EngWindowStalls);
                self.obs().observe(Hist::WindowStallNs, queued.elapsed().as_nanos() as u64);
            }
            if let Some(t) = self.tracer.as_mut() {
                // Time in the submission queue; the head-of-line wait on
                // a full per-server window nests inside it.
                let sub = t.push(Phase::Submit, t.root, queued, now, srv as u64);
                if was_blocked {
                    t.push(Phase::WindowStall, sub, queued, now, srv as u64);
                }
            }
            self.transmit(token, srv, req, now, 0)?;
        }
        Ok(())
    }

    fn transmit(
        &mut self,
        token: Token,
        srv: ServerId,
        mut req: Request,
        first_sent: Instant,
        attempt: u32,
    ) -> Result<(), CsarError> {
        let req_id = self.h.next_req.fetch_add(1, Ordering::Relaxed);
        let mut timeout = self.cfg.reply_timeout;
        for _ in 0..attempt {
            timeout *= self.cfg.backoff.max(1);
        }
        // Each attempt carries its own span id on the wire, so a retry's
        // server-side spans parent under the retry, not the abandoned
        // attempt.
        let span = match self.tracer.as_ref() {
            Some(t) => {
                let id = next_span_id();
                req.set_trace(Some(TraceCtx { trace: t.trace, span: id }));
                id
            }
            None => SpanId::NONE,
        };
        let keep = attempt < self.cfg.retries && retryable(&req);
        let lock_read = matches!(req, Request::ParityReadLock { .. });
        let sent = Instant::now();
        let flight = Flight {
            token,
            srv,
            req: if keep { Some(req.clone()) } else { None },
            first_sent,
            sent,
            deadline: sent + timeout,
            attempt,
            lock_read,
            span,
        };
        self.h.inner.server_txs[srv as usize]
            .send(ServerMsg::Req { from: self.h.id, req_id, req, reply_to: self.tx.clone() })
            .map_err(|_| CsarError::Transport(format!("server {srv} channel closed")))?;
        self.inflight.insert(req_id, flight);
        self.per_server[srv as usize] += 1;
        self.stats.requests += 1;
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.inflight.len() as u64);
        self.obs().inc(Ctr::EngIssued);
        self.obs().gauge_add(Gauge::EngInFlight, 1);
        Ok(())
    }

    /// Block until one completion is available: a locally-answered
    /// request or the next reply off the wire, whichever comes first.
    fn await_completion(&mut self) -> Result<(Token, Response), CsarError> {
        loop {
            self.pump()?;
            if let Some(c) = self.local.pop_front() {
                self.first_byte();
                return Ok(c);
            }
            if self.inflight.is_empty() {
                return Err(CsarError::Protocol("driver stalled without completing".into()));
            }
            let now = Instant::now();
            let nearest = self
                .inflight
                .values()
                .map(|f| f.deadline)
                .min()
                .unwrap_or(now);
            match self.rx.recv_timeout(nearest.saturating_duration_since(now)) {
                Ok((req_id, resp, batch)) => {
                    if self.superseded.remove(&req_id) {
                        continue; // late reply of a retried attempt
                    }
                    let Some(f) = self.inflight.remove(&req_id) else {
                        return Err(CsarError::Transport(format!(
                            "reply for unknown request id {req_id}"
                        )));
                    };
                    self.per_server[f.srv as usize] -= 1;
                    self.obs().inc(Ctr::EngDelivered);
                    self.obs().gauge_sub(Gauge::EngInFlight, 1);
                    let rtt = f.first_sent.elapsed().as_nanos() as u64;
                    self.obs().observe(Hist::ReqRttNs, rtt);
                    if f.lock_read {
                        // The §5.1 grant round trip includes the parked
                        // wait behind any holder.
                        self.obs().observe(Hist::LockWaitNs, rtt);
                    }
                    if let Some(t) = self.tracer.as_mut() {
                        // This attempt's wire RTT, plus whatever spans
                        // the server piggybacked (queue, lock, service —
                        // they parent under `f.span`).
                        t.push_as(f.span, Phase::WireRtt, t.root, f.sent, Instant::now(), f.srv as u64);
                        if let Some(batch) = batch {
                            t.spans.extend_from_slice(&batch);
                        }
                    }
                    self.first_byte();
                    return Ok((f.token, resp));
                }
                Err(RecvTimeoutError::Timeout) => self.expire(Instant::now())?,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CsarError::Transport("reply channel closed".into()))
                }
            }
        }
    }

    /// Handle missed deadlines: retry what is retryable, fail the
    /// operation otherwise, naming the unresponsive server.
    fn expire(&mut self, now: Instant) -> Result<(), CsarError> {
        let expired: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, f)| f.deadline <= now)
            .map(|(id, _)| *id)
            .collect();
        for req_id in expired {
            let Some(f) = self.inflight.remove(&req_id) else { continue };
            self.per_server[f.srv as usize] -= 1;
            if let Some(t) = self.tracer.as_mut() {
                // The expired attempt becomes a `timeout` span naming the
                // unresponsive server; a retry shows up as a sibling
                // attempt next to it, which is exactly what the flight
                // recorder needs to attribute a stall.
                t.push_as(f.span, Phase::Timeout, t.root, f.sent, now, f.srv as u64);
            }
            match f.req {
                Some(req) => {
                    self.superseded.insert(req_id);
                    self.stats.retries += 1;
                    self.obs().inc(Ctr::EngRetriedAbandoned);
                    self.obs().gauge_sub(Gauge::EngInFlight, 1);
                    self.transmit(f.token, f.srv, req, f.first_sent, f.attempt + 1)?;
                }
                None => {
                    self.obs().inc(Ctr::EngTimeouts);
                    self.obs().gauge_sub(Gauge::EngInFlight, 1);
                    return Err(CsarError::Timeout {
                        server: f.srv,
                        waited_ms: f.first_sent.elapsed().as_millis() as u64,
                    })
                }
            }
        }
        Ok(())
    }

    fn first_byte(&mut self) {
        if self.stats.ttfb_ns == 0 {
            self.stats.ttfb_ns = self.started.elapsed().as_nanos() as u64;
        }
    }

    fn finish(&mut self) -> OpStats {
        self.stats.elapsed_ns = self.started.elapsed().as_nanos() as u64;
        self.stats
    }
}

impl Drop for Engine<'_> {
    /// Whatever is still in flight when the op ends (a driver that
    /// failed early, or an engine error path) is abandoned: counted so
    /// `eng_issued == eng_delivered + eng_retried_abandoned +
    /// eng_timeouts + eng_abandoned` holds at every quiesce point.
    fn drop(&mut self) {
        let n = self.inflight.len() as u64;
        if n > 0 {
            self.obs().add(Ctr::EngAbandoned, n);
            self.obs().gauge_sub(Gauge::EngInFlight, n);
        }
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

    /// Drive one core operation to completion over a private engine,
    /// delivering each reply as soon as it arrives. When tracing is on,
    /// the engine stitches the op's spans (client phases, wire RTTs and
    /// server piggybacks) into one causal tree, retains it in the flight
    /// recorder, and — if the op dies with [`CsarError::Timeout`] —
    /// dumps the recorder automatically.
    pub(crate) fn run_op(
        &self,
        driver: &mut dyn OpDriver,
    ) -> Result<(OpOutput, OpStats), CsarError> {
        let mut eng = Engine::new(self, true);
        let res = self.run_op_inner(driver, &mut eng);
        self.finish_trace(&mut eng, &res);
        res
    }

    fn run_op_inner(
        &self,
        driver: &mut dyn OpDriver,
        eng: &mut Engine,
    ) -> Result<(OpOutput, OpStats), CsarError> {
        let t0 = Instant::now();
        let mut queue: VecDeque<Effect> = driver.poll(Completion::Begin).into();
        if let Some(t) = eng.tracer.as_mut() {
            t.push(Phase::Plan, t.root, t0, Instant::now(), queue.len() as u64);
        }
        loop {
            while let Some(e) = queue.pop_front() {
                match e {
                    Effect::Send { token, srv, req } => eng.submit(token, srv, req),
                    Effect::Compute { token, bytes } => {
                        // The XOR itself already happened inside the
                        // driver; the completion is immediate here, so
                        // the xor span times the state-machine step that
                        // absorbed it (aux carries the XORed bytes).
                        let t0 = Instant::now();
                        queue.extend(driver.poll(Completion::ComputeDone { token }));
                        if let Some(t) = eng.tracer.as_mut() {
                            t.push(Phase::Xor, t.root, t0, Instant::now(), bytes);
                        }
                    }
                    Effect::Done(r) => {
                        let stats = eng.finish();
                        return r.map(|out| (out, stats));
                    }
                }
            }
            let (token, resp) = eng.await_completion()?;
            let t0 = Instant::now();
            queue.extend(driver.poll(Completion::Reply { token, resp }));
            if let Some(t) = eng.tracer.as_mut() {
                t.push(Phase::Deliver, t.root, t0, Instant::now(), 0);
            }
        }
    }

    /// Close out an op's trace: emit the root span, mirror everything
    /// into the client registry's trace ring, retain the tree in the
    /// flight recorder, and auto-dump on timeout.
    fn finish_trace(
        &self,
        eng: &mut Engine,
        res: &Result<(OpOutput, OpStats), CsarError>,
    ) {
        let Some(mut t) = eng.tracer.take() else { return };
        let requests = eng.stats.requests;
        t.push_as(t.root, Phase::Op, SpanId::NONE, eng.started, Instant::now(), requests);
        for s in &t.spans {
            self.inner.obs.record_trace(s);
        }
        self.inner.record_flight(std::mem::take(&mut t.spans));
        if let Err(CsarError::Timeout { server, .. }) = res {
            let dump = self.inner.dump_flight("timeout", Some(*server));
            eprintln!(
                "csar: op timed out on server {server}; flight recorder dumped \
                 ({} bytes, retained via Cluster::last_flight_dump)",
                dump.len()
            );
        }
    }

    /// Send a batch of requests and gather replies in request order.
    /// Requests to failed servers are answered with `ServerDown` locally.
    pub(crate) fn send_batch(
        &self,
        batch: Vec<(ServerId, Request)>,
    ) -> Result<Vec<Response>, CsarError> {
        // Raw batches (stats scrapes, maintenance, rebuild) are not
        // traced as ops; only driver-run operations build trace trees.
        let mut eng = Engine::new(self, false);
        let n = batch.len();
        for (i, (srv, req)) in batch.into_iter().enumerate() {
            eng.submit(i as Token, srv, req);
        }
        let mut slots: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        let mut filled = 0;
        while filled < n {
            let (token, resp) = eng.await_completion()?;
            let slot = slots.get_mut(token as usize).ok_or_else(|| {
                CsarError::Transport(format!("reply for unknown batch slot {token}"))
            })?;
            if slot.replace(resp).is_some() {
                return Err(CsarError::Transport(format!("duplicate reply for batch slot {token}")));
            }
            filled += 1;
        }
        slots
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

    /// A manager round trip.
    pub(crate) fn mgr(&self, req: MgrRequest) -> Result<MgrResponse, CsarError> {
        let (tx, rx) = channel();
        self.inner
            .mgr_tx
            .send(MgrMsg::Req { req, reply_to: tx })
            .map_err(|_| CsarError::Transport("manager channel closed".into()))?;
        rx.recv_timeout(self.transport().reply_timeout)
            .map_err(|_| CsarError::Transport("manager timed out".into()))
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
        match self.handle.mgr(MgrRequest::Remove { name: name.into() })? {
            MgrResponse::Ok => Ok(()),
            MgrResponse::Err(e) => Err(e),
            other => Err(CsarError::Protocol(format!("expected Ok, got {other:?}"))),
        }
    }
}

/// An open CSAR file with a blocking positional API. Safe to share
/// across threads; operations run concurrently (no per-file lock).
pub struct File {
    handle: Handle,
    meta: Mutex<FileMeta>,
    stats: Mutex<OpStats>,
}

impl File {
    fn new(handle: Handle, meta: FileMeta) -> Self {
        Self { handle, meta: Mutex::new(meta), stats: Mutex::new(OpStats::default()) }
    }

    /// Snapshot of the file's metadata.
    pub fn meta(&self) -> FileMeta {
        self.meta.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Current logical size.
    pub fn size(&self) -> u64 {
        self.meta.lock().unwrap_or_else(PoisonError::into_inner).size
    }

    /// Accumulated per-operation transport instrumentation for reads
    /// and writes issued through this handle.
    pub fn op_stats(&self) -> OpStats {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record(&self, stats: &OpStats) {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner).merge(stats);
    }

    fn hdr(&self) -> ReqHeader {
        let m = self.meta.lock().unwrap_or_else(PoisonError::into_inner);
        ReqHeader::new(m.fh, m.layout, m.scheme)
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
        let meta = self.meta();
        // Like reads, writes proceed around a fail-stopped server where
        // the scheme's redundancy permits (see WriteDriver::new_degraded).
        let failed = self.handle.failed();
        let mut driver = WriteDriver::new_degraded(&meta, off, payload, failed);
        let t0 = Instant::now();
        let (out, stats) = self.handle.run_op(&mut driver)?;
        self.handle.obs().observe(Hist::OpWriteNs, t0.elapsed().as_nanos() as u64);
        self.record(&stats);
        let OpOutput::Written { bytes } = out else {
            return Err(CsarError::Protocol("write returned a read output".into()));
        };
        // Report the new EOF to the manager (PVFS metadata update).
        let end = off + len;
        {
            let mut m = self.meta.lock().unwrap_or_else(PoisonError::into_inner);
            if end > m.size {
                m.size = end;
            }
        }
        self.handle.mgr(MgrRequest::SetSize { fh: meta.fh, size: end })?;
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
        let meta = self.meta();
        let failed = self.handle.failed();
        let mut driver = ReadDriver::new(&meta, off, len, failed);
        let t0 = Instant::now();
        let (out, stats) = self.handle.run_op(&mut driver)?;
        self.handle.obs().observe(Hist::OpReadNs, t0.elapsed().as_nanos() as u64);
        self.record(&stats);
        Ok(out.into_payload())
    }

    /// Per-server storage usage for this file (paper Table 2).
    pub fn storage_report(&self) -> Result<StorageReport, CsarError> {
        let hdr = self.hdr();
        let mut per_server = Vec::with_capacity(self.handle.servers() as usize);
        for srv in 0..self.handle.servers() {
            match self.handle.send_one(srv, Request::GetUsage { hdr })? {
                Response::Usage { usage } => per_server.push(usage),
                Response::Err(e) => return Err(e),
                other => return Err(CsarError::Protocol(format!("expected Usage, got {other:?}"))),
            }
        }
        Ok(StorageReport::new(per_server))
    }

    /// Drop this file from every server's page-cache model (the paper's
    /// "contents have been removed from the cache" overwrite setup).
    pub fn evict_caches(&self) -> Result<(), CsarError> {
        let hdr = self.hdr();
        for srv in 0..self.handle.servers() {
            self.handle.send_one(srv, Request::EvictFile { hdr })?.into_done()?;
        }
        Ok(())
    }

    /// Run the §6.7 overflow compaction on every server.
    pub fn compact_overflow(&self) -> Result<(), CsarError> {
        let hdr = self.hdr();
        for srv in 0..self.handle.servers() {
            self.handle.send_one(srv, Request::CompactOverflow { hdr })?.into_done()?;
        }
        Ok(())
    }
}
