//! The completion engine: the one loop around [`OpDriver::poll`],
//! shared by the live cluster and the simulator.
//!
//! An executor owns the clock, the wire and the request and trace IDs,
//! and implements [`Executor`]. It feeds the engine one event at a time —
//! the op starting, a reply, a finished compute, a passed deadline —
//! and each call returns `Some(result)` once the driver is done. The
//! engine owns everything in between:
//!
//! * **Routing.** The executor assigns request IDs (live servers key
//!   parked replies by `(client, req_id)`); the engine maps them back to
//!   driver tokens and drops late replies of retried attempts.
//! * **Window.** A strict-FIFO submission queue with a per-server
//!   in-flight window. A blocked head waits, which keeps the drivers'
//!   issue order (an RMW group's data writes before its unlock, §5.1).
//! * **Deadlines.** Saturating `u64` ns; `u64::MAX` never expires.
//!   Read-class requests ([`Request::retryable`]) are re-sent with
//!   exponential backoff. Anything else — a `ParityReadLock` that is
//!   most likely parked behind a holder — fails the op with
//!   [`CsarError::Timeout`] naming the server.
//! * **Barrier-compat.** [`EngineConfig::barrier`] replays the retired
//!   batch engine: replies are held until the op's in-flight wave has
//!   landed (held time counts as stall), and the driver issues in batch
//!   order ([`OpDriver::set_batch_issue`]).
//! * **Stats and spans.** Per-op [`OpStats`], and for a traced op its
//!   client span tree: `op` (root), `plan`, `submit`, `window_stall`,
//!   `wire_rtt`, `xor`, `deliver`, `timeout`. Each attempt's `wire_rtt`
//!   span ID rides on its request, so server spans parent under it.

use super::{Completion, Effect, OpDriver, OpOutput, Token};
use crate::error::CsarError;
use crate::proto::{Request, Response, ServerId};
use csar_obs::trace::{op_span, Phase, SpanId, TraceCtx, TraceId, TraceSpan};
use csar_obs::Ctr;
use std::collections::{HashMap, HashSet, VecDeque};

/// Per-op engine policy. The live cluster derives it from its transport
/// settings; the simulator runs the default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Requests one op keeps in flight per server.
    pub window: u32,
    /// Base reply deadline, ns after transmit; `u64::MAX` never expires.
    pub timeout_ns: u64,
    /// Extra attempts for read-class requests.
    pub retries: u32,
    /// Deadline multiplier applied on each retry.
    pub backoff: u32,
    /// Barrier-compat delivery and issue order.
    pub barrier: bool,
}

impl Default for EngineConfig {
    /// No window, no deadline, pipelined delivery: the simulator's policy.
    fn default() -> Self {
        Self { window: u32::MAX, timeout_ns: u64::MAX, retries: 0, backoff: 1, barrier: false }
    }
}

/// Per-operation transport instrumentation (sums over operations when
/// merged, unless noted).
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
    /// Time ready work waited: requests queued behind the per-server
    /// window, plus (barrier-compat) replies held until their wave
    /// drained.
    pub queue_stall_ns: u64,
    /// Operation time, start to finish.
    pub elapsed_ns: u64,
}

impl OpStats {
    /// Fold one operation's (or another accumulation's) stats in.
    pub fn merge(&mut self, one: &OpStats) {
        self.ops += one.ops;
        self.requests += one.requests;
        self.retries += one.retries;
        self.max_in_flight = self.max_in_flight.max(one.max_in_flight);
        self.ttfb_ns += one.ttfb_ns;
        self.queue_stall_ns += one.queue_stall_ns;
        self.elapsed_ns += one.elapsed_ns;
    }
}

/// Events an executor may count: transport events (the live cluster's
/// `eng_*` metrics) and the driver's own counters. Each request the
/// executor transmits ends in exactly one `Delivered`, `Retried`,
/// `TimedOut` or `Abandoned` unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Note {
    /// A request waited this many ns at the queue head for a window slot.
    WindowStall(u64),
    /// A reply was accepted, `rtt_ns` after the request was first sent.
    /// For a §5.1 `lock_read` the round trip includes the lock wait.
    Delivered {
        /// First transmit to reply.
        rtt_ns: u64,
        /// The request was a parity-lock read.
        lock_read: bool,
    },
    /// An attempt missed its deadline and was re-sent.
    Retried,
    /// A non-retryable request missed its deadline; the op fails.
    TimedOut,
    /// Requests still in flight when the op ended.
    Abandoned(u64),
    /// A driver's [`Effect::Count`]: add `n` to the counter.
    Count(Ctr, u64),
}

/// What the engine needs from whoever runs it: a clock, a wire and a
/// compute model.
pub trait Executor {
    /// Current time on the executor's clock, ns.
    fn now_ns(&mut self) -> u64;
    /// Transmit `req` to `srv` and return the ID its reply will carry.
    fn send(&mut self, srv: ServerId, req: Request) -> Result<u64, CsarError>;
    /// Charge `bytes` of parity compute (already done inside the
    /// driver), then report [`OpEngine::compute_done`] for `token`.
    fn compute(&mut self, token: Token, bytes: u64);
    /// Bookkeeping; ignored unless the executor counts it.
    fn note(&mut self, _note: Note) {}
}

/// A request waiting in the submission queue.
struct Queued {
    token: Token,
    srv: ServerId,
    req: Request,
    at: u64,
    /// Ever head-of-line blocked on a full window.
    blocked: bool,
}

/// One transmitted attempt awaiting its reply.
struct Attempt {
    token: Token,
    srv: ServerId,
    /// The request, kept only while a retry is possible (read-class
    /// with attempts left), so write payloads are never cloned.
    retry: Option<Request>,
    /// Transmit times of attempt 0 and of this attempt.
    first_sent: u64,
    sent: u64,
    deadline: u64,
    attempt: u32,
    lock_read: bool,
    /// This attempt's `wire_rtt` span ([`SpanId::NONE`] untraced).
    span: SpanId,
}

/// Result of one engine call: `Some` once the op has finished.
pub type Finished = Option<Result<OpOutput, CsarError>>;

/// One client operation's completion state. An engine runs one op
/// after another, keeping its allocations (the simulator keeps one per
/// client).
#[derive(Default)]
pub struct OpEngine {
    cfg: EngineConfig,
    /// A traced op's trace, its root span, its last span number and its
    /// finished spans.
    trace: Option<TraceId>,
    root: SpanId,
    last_span: u64,
    spans: Vec<TraceSpan>,
    sq: VecDeque<Queued>,
    inflight: HashMap<u64, Attempt>,
    /// Request IDs abandoned by a retry; their late replies are dropped.
    superseded: HashSet<u64>,
    /// Barrier-compat: replies held until the wave drains (arrival,
    /// token, reply).
    held: Vec<(u64, Token, Response)>,
    /// Computes in progress: token, charged at, bytes.
    computing: Vec<(Token, u64, u64)>,
    started: u64,
    first_reply: Option<u64>,
    stats: OpStats,
    /// Set once the op has finished.
    out: Finished,
}

impl OpEngine {
    /// Start an op under `cfg`: poll `Begin` and issue what it returns.
    /// `trace` is the op's trace ID if it is traced.
    pub fn begin(
        &mut self,
        cfg: EngineConfig,
        trace: Option<TraceId>,
        d: &mut dyn OpDriver,
        ex: &mut impl Executor,
    ) -> Finished {
        self.sq.clear();
        self.inflight.clear();
        self.superseded.clear();
        self.held.clear();
        self.computing.clear();
        (self.cfg, self.trace, self.last_span) = (cfg, trace, 0);
        (self.first_reply, self.out) = (None, None);
        self.stats = OpStats { ops: 1, ..OpStats::default() };
        self.started = ex.now_ns();
        self.root = self.span_id();
        if self.cfg.barrier {
            d.set_batch_issue(true);
        }
        let effects = d.poll(Completion::Begin);
        let planned = effects.iter().filter(|e| !matches!(e, Effect::Count { .. })).count();
        self.traced(ex, self.root, Phase::Plan, self.started, planned as u64);
        self.absorb(effects, ex);
        self.settle(ex)
    }

    /// The reply to request `req_id`; `server_spans` are the spans the
    /// server piggybacked on it (only a traced request carries any),
    /// recorded if the reply is accepted.
    pub fn reply(
        &mut self,
        req_id: u64,
        resp: Response,
        server_spans: &[TraceSpan],
        d: &mut dyn OpDriver,
        ex: &mut impl Executor,
    ) -> Finished {
        if !self.superseded.is_empty() && self.superseded.remove(&req_id) {
            return None; // late reply of a retried attempt
        }
        let Some(a) = self.inflight.remove(&req_id) else {
            return Some(Err(CsarError::Transport(format!("reply for unknown request id {req_id}"))));
        };
        let now = ex.now_ns();
        ex.note(Note::Delivered { rtt_ns: now.saturating_sub(a.first_sent), lock_read: a.lock_read });
        self.close(ex, a.span, self.root, Phase::WireRtt, a.sent, a.srv as u64);
        self.spans.extend_from_slice(server_spans);
        self.first_reply.get_or_insert(now);
        if !self.cfg.barrier {
            self.deliver(a.token, resp, d, ex);
        } else {
            self.held.push((now, a.token, resp));
            if !self.inflight.is_empty() {
                return None; // wave still in flight; keep holding
            }
            for (arrived, token, resp) in std::mem::take(&mut self.held) {
                self.stats.queue_stall_ns += now - arrived;
                self.deliver(token, resp, d, ex);
            }
        }
        self.settle(ex)
    }

    /// The compute charged for `token` finished.
    pub fn compute_done(&mut self, token: Token, d: &mut dyn OpDriver, ex: &mut impl Executor) -> Finished {
        let effects = d.poll(Completion::ComputeDone { token });
        if let Some(i) = self.computing.iter().position(|c| c.0 == token) {
            let (_, charged, bytes) = self.computing.swap_remove(i);
            self.traced(ex, self.root, Phase::Xor, charged, bytes);
        }
        self.absorb(effects, ex);
        self.settle(ex)
    }

    /// Handle every deadline that has passed: re-send what is
    /// retryable, fail the op otherwise.
    pub fn expire(&mut self, ex: &mut impl Executor) -> Finished {
        let now = ex.now_ns();
        let expired: Vec<u64> =
            self.inflight.iter().filter(|(_, a)| a.deadline <= now).map(|(id, _)| *id).collect();
        for req_id in expired {
            if self.out.is_some() {
                break;
            }
            let Some(a) = self.inflight.remove(&req_id) else { continue };
            // The expired attempt names the unresponsive server; a retry
            // shows up as a sibling attempt next to it.
            self.close(ex, a.span, self.root, Phase::Timeout, a.sent, a.srv as u64);
            let Some(req) = a.retry else {
                ex.note(Note::TimedOut);
                let waited_ms = (now - a.first_sent) / 1_000_000;
                return Some(Err(CsarError::Timeout { server: a.srv, waited_ms }));
            };
            self.superseded.insert(req_id);
            self.stats.retries += 1;
            ex.note(Note::Retried);
            self.transmit(a.token, a.srv, req, a.first_sent, a.attempt + 1, ex);
        }
        self.settle(ex)
    }

    /// The earliest deadline in flight, `None` if nothing can expire.
    pub fn next_deadline(&self) -> Option<u64> {
        self.inflight.values().map(|a| a.deadline).min().filter(|&d| d != u64::MAX)
    }

    /// End the op, however it ended: abandon whatever is still in
    /// flight, close the root span, append the op's spans to `out` and
    /// return its stats. The engine keeps its own span buffer for the
    /// next op, so a traced op allocates only when `out` grows.
    pub fn finish(&mut self, ex: &mut impl Executor, out: &mut Vec<TraceSpan>) -> OpStats {
        let now = ex.now_ns();
        self.stats.elapsed_ns = now - self.started;
        self.stats.ttfb_ns = self.first_reply.map_or(0, |t| t - self.started);
        if !self.inflight.is_empty() {
            ex.note(Note::Abandoned(self.inflight.len() as u64));
        }
        self.close(ex, self.root, SpanId::NONE, Phase::Op, self.started, self.stats.requests);
        out.append(&mut self.spans);
        self.stats
    }

    /// Issue a driver's effects in order, up to `Done`.
    fn absorb(&mut self, effects: Vec<Effect>, ex: &mut impl Executor) {
        for e in effects {
            if self.out.is_some() {
                return;
            }
            match e {
                Effect::Send { token, srv, req } => {
                    let at = ex.now_ns();
                    self.sq.push_back(Queued { token, srv, req, at, blocked: false });
                    self.pump(ex);
                }
                Effect::Compute { token, bytes } => {
                    self.computing.push((token, ex.now_ns(), bytes));
                    ex.compute(token, bytes);
                }
                Effect::Count { ctr, n } => ex.note(Note::Count(ctr, n)),
                Effect::Done(r) => self.out = Some(r),
            }
        }
    }

    /// Transmit what the window now admits; `Some` once the op is done,
    /// or stalled with nothing left that could complete it.
    fn settle(&mut self, ex: &mut impl Executor) -> Finished {
        self.pump(ex);
        if self.out.is_none() && self.inflight.is_empty() && self.computing.is_empty() {
            self.out = Some(Err(CsarError::Protocol("driver stalled without completing".into())));
        }
        self.out.take()
    }

    /// Hand one reply to the driver and issue what it unblocks.
    fn deliver(&mut self, token: Token, resp: Response, d: &mut dyn OpDriver, ex: &mut impl Executor) {
        if self.out.is_some() {
            return;
        }
        let t0 = ex.now_ns();
        let effects = d.poll(Completion::Reply { token, resp });
        self.traced(ex, self.root, Phase::Deliver, t0, 0);
        self.absorb(effects, ex);
    }

    /// Transmit queue heads while their servers have window space.
    fn pump(&mut self, ex: &mut impl Executor) {
        while let Some(head) = self.sq.front_mut() {
            if self.out.is_some() {
                return;
            }
            // A server is full with `window` requests in flight (none can
            // be while fewer are in flight in all). FIFO order is the
            // contract: the head waits, and its stall is counted once
            // when it finally transmits.
            let window = self.cfg.window as usize;
            if self.inflight.len() >= window
                && self.inflight.values().filter(|a| a.srv == head.srv).count() >= window
            {
                head.blocked = true;
                return;
            }
            let Some(q) = self.sq.pop_front() else { return };
            let now = ex.now_ns();
            self.stats.queue_stall_ns += now - q.at;
            if q.blocked {
                ex.note(Note::WindowStall(now - q.at));
            }
            // Time in the submission queue; the head-of-line wait on a
            // full window nests inside it.
            let sub = self.traced(ex, self.root, Phase::Submit, q.at, q.srv as u64);
            if q.blocked {
                self.traced(ex, sub, Phase::WindowStall, q.at, q.srv as u64);
            }
            self.transmit(q.token, q.srv, q.req, now, 0, ex);
        }
    }

    fn transmit(
        &mut self,
        token: Token,
        srv: ServerId,
        mut req: Request,
        first_sent: u64,
        attempt: u32,
        ex: &mut impl Executor,
    ) {
        // Each attempt carries its own span ID on the wire, so a retry's
        // server spans parent under the retry, not the abandoned attempt.
        let span = match self.trace {
            Some(trace) => {
                let id = self.span_id();
                req.set_trace(Some(TraceCtx { trace, span: id }));
                id
            }
            None => SpanId::NONE,
        };
        let retry = (attempt < self.cfg.retries && req.retryable()).then(|| req.clone());
        let lock_read = req.is_lock_read();
        let sent = ex.now_ns();
        let req_id = match ex.send(srv, req) {
            Ok(id) => id,
            Err(e) => {
                self.out = Some(Err(e));
                return;
            }
        };
        let backoff = u64::from(self.cfg.backoff.max(1));
        let timeout = (0..attempt).fold(self.cfg.timeout_ns, |t, _| t.saturating_mul(backoff));
        let deadline = sent.saturating_add(timeout);
        self.inflight.insert(req_id, Attempt { token, srv, retry, first_sent, sent, deadline, attempt, lock_read, span });
        self.stats.requests += 1;
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.inflight.len() as u64);
    }

    /// Record a new client span under `parent`, `start` to now (traced).
    fn traced(&mut self, ex: &mut impl Executor, parent: SpanId, phase: Phase, start: u64, aux: u64) -> SpanId {
        let id = self.span_id();
        self.close(ex, id, parent, phase, start, aux);
        id
    }

    /// The op's next span ID ([`SpanId::NONE`] untraced).
    fn span_id(&mut self) -> SpanId {
        let Some(trace) = self.trace else { return SpanId::NONE };
        self.last_span += 1;
        op_span(trace, self.last_span)
    }

    /// Record `span` under `parent`, `start_ns` to now (traced ops only).
    fn close(&mut self, ex: &mut impl Executor, span: SpanId, parent: SpanId, phase: Phase, start_ns: u64, aux: u64) {
        if let Some(trace) = self.trace {
            let dur_ns = ex.now_ns().saturating_sub(start_ns);
            self.spans.push(TraceSpan { trace, span, parent, phase, start_ns, dur_ns, aux });
        }
    }
}
