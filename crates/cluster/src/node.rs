//! Server workers and the manager thread.

use crate::transport::{Mailbox, MgrMsg, ReplySender, ReplyTrace, ServerMsg};
use csar_core::manager::Manager;
use csar_core::proto::ServerId;
use csar_core::server::{Effect, IoServer};
use csar_obs::trace::{Phase, TraceSpan};
use csar_obs::Gauge;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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

/// Run one server worker until `Shutdown`. Worker `w` hosts servers
/// `w, w + workers, …`, so server `s` is `engines[s / workers]`. The
/// servers share the worker's mailbox but nothing else: each has its
/// own engine, and its requests arrive in the order they were sent.
///
/// Requests whose handling is deferred by the parity lock produce their
/// reply later (when the unlocking write arrives); the worker keeps the
/// reply mailbox of every in-flight request keyed by `(server, client,
/// req_id)`.
///
/// While the cluster's `tracing` flag is on, the worker times each
/// traced request's queue wait (from when the client queued it to
/// dispatch) and service (the `handle_at` call) and piggybacks the
/// spans — plus any §5.1 `lock_wait` span the engine attached to a
/// woken reply — on the reply tuple; untraced, it reads no clock. The
/// executor owns the clock: the engine state machine itself never reads
/// time, it only receives `now_ns` (so the sim can replay the same
/// state machine under a virtual clock).
pub(crate) fn run_worker(
    inbox: Arc<Mailbox<ServerMsg>>,
    engines: Vec<SharedServer>,
    workers: u32,
    epoch: Instant,
    tracing: Arc<AtomicBool>,
) {
    let mut pending: HashMap<ReqKey, ReplySender> = HashMap::new();
    // Queue-wait spans of requests parked on a parity lock: computed at
    // their dispatch, attached when the unlocking write finally produces
    // their reply.
    let mut held_spans: HashMap<ReqKey, TraceSpan> = HashMap::new();
    // Before each dispatch the loop moves everything in the mailbox into
    // a local backlog under one lock (waiting only when the backlog is
    // empty); the backlog's depth, over every server this worker hosts,
    // is what the queue-depth gauge reports.
    let mut backlog: VecDeque<ServerMsg> = VecDeque::new();
    loop {
        inbox.drain_into(backlog.is_empty(), &mut backlog);
        let Some(ServerMsg::Req { srv, from, req_id, req, reply_to, queued_ns }) = backlog.pop_front() else {
            break; // `Shutdown`
        };
        pending.insert((srv, from, req_id), reply_to);
        let ctx = req.trace_ctx();
        // A panicked observer cannot corrupt the engine, so a poisoned
        // lock is recovered rather than propagated.
        let mut engine = engines[(srv / workers) as usize].lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert_eq!(engine.id, srv);
        // Backlog plus the request in service.
        engine.obs.gauge_set(Gauge::SrvQueueDepth, backlog.len() as u64 + 1);
        let traced = tracing.load(Ordering::Relaxed);
        let dispatch_ns = if traced { ns_since(epoch, Instant::now()) } else { 0 };
        let effects = engine.handle_at(from, req_id, req, dispatch_ns);
        let done_ns = if traced { ns_since(epoch, Instant::now()) } else { 0 };
        let queue_span = ctx
            .filter(|_| traced)
            .map(|c| TraceSpan::server(c, Phase::SrvQueue, queued_ns, dispatch_ns, srv));
        let mut replied_current = false;
        for Effect::Reply { to, req_id: rid, resp, trace, lock_wait, .. } in effects {
            let key = (srv, to, rid);
            let current = to == from && rid == req_id;
            // A parked request woken by this unlock had its queue wait
            // stamped at its own dispatch; its entry goes whether or not
            // tracing is still on.
            let queued = if current { queue_span } else { held_spans.remove(&key) };
            replied_current |= current;
            // An op that already ended drops the reply with its last
            // handle.
            let Some(tx) = pending.remove(&key) else { continue };
            let mut spans: Vec<TraceSpan> = Vec::new();
            if traced {
                spans.extend(queued);
                if let Some(c) = trace {
                    // Service time: for a woken waiter this is the slice
                    // of the unlocking dispatch that served its deferred
                    // read.
                    spans.push(TraceSpan::server(c, Phase::Service, dispatch_ns, done_ns, srv));
                }
                spans.extend(lock_wait);
            }
            let batch: ReplyTrace = (!spans.is_empty()).then(|| spans.into_boxed_slice());
            tx.push((rid, resp, batch));
        }
        if let Some(s) = queue_span.filter(|_| !replied_current) {
            // Parked on the parity lock: keep the queue-wait span until
            // the wake produces the reply.
            held_spans.insert((srv, from, req_id), s);
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
