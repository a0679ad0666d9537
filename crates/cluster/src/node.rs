//! Server workers and the manager thread.
//!
//! A server worker hosts every `W`-th server's engine behind one request
//! mailbox. What it keeps between requests (the reply mailbox of every
//! request in flight, the queue-wait spans of requests parked on a
//! parity lock, and the backlog being served) sits behind one mutex in
//! its [`Worker`], and one routine, `Worker::serve`, serves the mailbox
//! for whichever thread holds that mutex. The worker's own thread waits
//! for mail and takes the mutex blocking; a client op, once its engine
//! call is over, takes it with `try_lock` for the last worker it queued
//! requests to and serves them on its own thread
//! ([`Worker::serve_inline`]), so a round trip to an idle worker costs
//! no thread handoff. These invariants hold:
//!
//! 1. **FIFO per worker.** Each worker's messages are served in mailbox
//!    order by whichever thread holds its state: a pass drains the
//!    mailbox into the backlog and serves from its front, and a batch
//!    handed back goes in front of everything queued since.
//! 2. **No lost request.** A client that fails the `try_lock` rings the
//!    worker's thread; the holder may be past its last drain. An inline
//!    holder re-checks the mailbox after unlocking and serves again if it
//!    is not empty; the worker's thread always waits for mail again.
//! 3. **No blocking inline.** The inline pass never blocks on an engine
//!    mutex. On a held engine (`Cluster::hold_server`, an observer) or on
//!    `Shutdown` it puts the rest of the batch back at the front of the
//!    mailbox and wakes the worker's thread, which waits for the engine
//!    in its place, so reply deadlines and `srv_queue` spans run as if
//!    that thread had taken the request from the start.
//! 4. **Lock order.** Worker state, then engine, then reply mailbox;
//!    never the reverse. A mailbox's own lock is a leaf: nothing is
//!    taken while it is held.

use crate::transport::{Mailbox, MgrMsg, ReplySender, ReplyTrace, ServerMsg};
use csar_core::manager::Manager;
use csar_core::proto::ServerId;
use csar_core::server::{Effect, IoServer};
use csar_obs::trace::{Phase, TraceSpan};
use csar_obs::{Ctr, Gauge};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

/// Shared observer handle onto one server's engine.
///
/// The engine is served by the worker that hosts it; snapshots of the
/// store and stats are taken under a mutex so tests and the
/// storage-report path can inspect them without stopping the cluster.
pub(crate) type SharedServer = Arc<Mutex<IoServer>>;

/// Nanoseconds of `t` relative to the cluster epoch. All cluster
/// threads share one epoch `Instant` so server-side span timestamps
/// land on the same axis as the client engine's (DESIGN.md §15).
fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// A request in flight at a server, as its worker keys it.
type ReqKey = (ServerId, u32, u64);

/// One server worker: the engines it hosts and its state. Its mailbox
/// is the cluster's (clients queue to it without the worker), passed to
/// each call.
pub(crate) struct Worker {
    /// Worker `w` hosts servers `w, w + stride, …`, so server `s` is
    /// `engines[s / stride]`. The servers share the worker's mailbox but
    /// nothing else: each has its own engine, and its requests arrive in
    /// the order they were sent.
    engines: Vec<SharedServer>,
    stride: u32,
    epoch: Instant,
    tracing: Arc<AtomicBool>,
    state: Mutex<State>,
}

/// What a worker keeps between requests, whichever thread serves it.
#[derive(Default)]
struct State {
    /// Requests whose handling is deferred by the parity lock produce
    /// their reply later (when the unlocking write arrives), so the
    /// reply mailbox of every request in flight is kept by `(server,
    /// client, req_id)`.
    pending: HashMap<ReqKey, ReplySender>,
    /// Queue-wait spans of requests parked on a parity lock: computed at
    /// their dispatch, attached when the unlocking write finally
    /// produces their reply.
    held_spans: HashMap<ReqKey, TraceSpan>,
    /// Before each dispatch a pass moves everything in the mailbox here
    /// under one lock; its depth, over every server the worker hosts, is
    /// what the queue-depth gauge reports. Empty between passes.
    backlog: VecDeque<ServerMsg>,
}

/// How a pass of [`Worker::serve`] ended.
#[derive(PartialEq)]
enum Pass {
    /// The mailbox is empty.
    Drained,
    /// Inline: the rest of the batch went back to the worker's thread.
    HandedBack,
    /// The worker's thread took `Shutdown`.
    Shutdown,
}

impl Worker {
    pub(crate) fn new(
        engines: Vec<SharedServer>,
        stride: u32,
        epoch: Instant,
        tracing: Arc<AtomicBool>,
    ) -> Self {
        Self { engines, stride, epoch, tracing, state: Mutex::default() }
    }

    /// The worker's own thread: wait for mail, serve it, until
    /// `Shutdown`.
    pub(crate) fn run(&self, inbox: &Mailbox<ServerMsg>) {
        loop {
            inbox.wait_for_mail();
            // A panicked server cannot leave the maps half written, so
            // a poisoned lock is recovered rather than propagated.
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if self.serve(inbox, &mut state, None) == Pass::Shutdown {
                return;
            }
        }
    }

    /// Serve the worker's mailbox on the calling op's thread, whose
    /// reply mailbox is `mine`, if no other thread is serving it; ring
    /// the worker's thread otherwise (invariants 2 and 3).
    pub(crate) fn serve_inline(&self, inbox: &Mailbox<ServerMsg>, mine: &ReplySender) {
        loop {
            let mut state = match self.state.try_lock() {
                Ok(state) => state,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => return inbox.ring(),
            };
            let pass = self.serve(inbox, &mut state, Some(mine));
            drop(state);
            if pass != Pass::Drained || inbox.is_empty() {
                return;
            }
        }
    }

    /// Server `srv`'s engine: waited for on the worker's own thread
    /// (`wait`), only tried inline (`None` while another thread holds
    /// it).
    fn engine(&self, srv: ServerId, wait: bool) -> Option<MutexGuard<'_, IoServer>> {
        let engine = &self.engines[(srv / self.stride) as usize];
        // A panicked observer cannot corrupt the engine, so a poisoned
        // lock is recovered rather than propagated.
        if wait {
            return Some(engine.lock().unwrap_or_else(PoisonError::into_inner));
        }
        match engine.try_lock() {
            Ok(engine) => Some(engine),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Serve the mailbox until it is empty. `mine` is `None` on the
    /// worker's own thread, which stops at `Shutdown` and waits for a
    /// held engine. Inline, `mine` is the serving op's reply mailbox, and
    /// `Shutdown` or a held engine ends the pass: that message and the
    /// rest of the batch go back to the worker's thread.
    ///
    /// While the cluster's `tracing` flag is on, each traced request's
    /// queue wait (from when the client queued it to dispatch) and
    /// service (the `handle_at` call) are timed and the spans, plus any
    /// §5.1 `lock_wait` span the engine attached to a woken reply, are
    /// piggybacked on the reply tuple; untraced, no clock is read. The
    /// executor owns the clock: the engine state machine itself never
    /// reads time, it only receives `now_ns` (so the sim can replay the
    /// same state machine under a virtual clock).
    fn serve(&self, inbox: &Mailbox<ServerMsg>, state: &mut State, mine: Option<&ReplySender>) -> Pass {
        let State { pending, held_spans, backlog } = state;
        let hand_back = |backlog: &mut VecDeque<ServerMsg>, msg| {
            backlog.push_front(msg);
            inbox.put_back(backlog);
            Pass::HandedBack
        };
        loop {
            inbox.drain_into(false, backlog);
            let Some(msg) = backlog.pop_front() else { return Pass::Drained };
            let ServerMsg::Req { srv, from, req_id, req, reply_to, queued_ns } = msg else {
                return match mine {
                    None => Pass::Shutdown,
                    Some(_) => hand_back(backlog, ServerMsg::Shutdown),
                };
            };
            let Some(mut engine) = self.engine(srv, mine.is_none()) else {
                return hand_back(backlog, ServerMsg::Req { srv, from, req_id, req, reply_to, queued_ns });
            };
            debug_assert_eq!(engine.id, srv);
            if mine.is_some_and(|mine| Arc::ptr_eq(mine, &reply_to)) {
                engine.obs.inc(Ctr::SrvServedInline);
            }
            pending.insert((srv, from, req_id), reply_to);
            let ctx = req.trace_ctx();
            // Backlog plus the request in service.
            engine.obs.gauge_set(Gauge::SrvQueueDepth, backlog.len() as u64 + 1);
            let traced = self.tracing.load(Ordering::Relaxed);
            let dispatch_ns = if traced { ns_since(self.epoch, Instant::now()) } else { 0 };
            let effects = engine.handle_at(from, req_id, req, dispatch_ns);
            let done_ns = if traced { ns_since(self.epoch, Instant::now()) } else { 0 };
            let queue_span = ctx
                .filter(|_| traced)
                .map(|c| TraceSpan::server(c, Phase::SrvQueue, queued_ns, dispatch_ns, srv));
            let mut replied_current = false;
            for Effect::Reply { to, req_id: rid, resp, trace, lock_wait, .. } in effects {
                let key = (srv, to, rid);
                let current = to == from && rid == req_id;
                // A parked request woken by this unlock had its queue wait
                // stamped at its own dispatch; its entry goes whether or
                // not tracing is still on.
                let queued = if current { queue_span } else { held_spans.remove(&key) };
                replied_current |= current;
                // An op that already ended drops the reply with its last
                // handle.
                let Some(tx) = pending.remove(&key) else { continue };
                let mut spans: Vec<TraceSpan> = Vec::new();
                if traced {
                    spans.extend(queued);
                    if let Some(c) = trace {
                        // Service time: for a woken waiter this is the
                        // slice of the unlocking dispatch that served its
                        // deferred read.
                        spans.push(TraceSpan::server(c, Phase::Service, dispatch_ns, done_ns, srv));
                    }
                    spans.extend(lock_wait);
                }
                let batch: ReplyTrace = (!spans.is_empty()).then(|| spans.into_boxed_slice());
                tx.push((rid, resp, batch));
            }
            if let Some(s) = queue_span.filter(|_| !replied_current) {
                // Parked on the parity lock: keep the queue-wait span
                // until the wake produces the reply.
                held_spans.insert((srv, from, req_id), s);
            }
        }
    }
}

/// Run the manager thread until `Shutdown`, starting from `mgr`
/// (a fresh manager, or one rebuilt from a snapshot).
pub(crate) fn run_manager(inbox: Arc<Mailbox<MgrMsg>>, mut mgr: Manager) {
    while let Some(MgrMsg::Req { req, reply_to }) = inbox.pop(None) {
        reply_to.push(mgr.handle(req));
    }
}
