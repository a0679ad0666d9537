//! Server and manager threads.

use crate::transport::{Mailbox, MgrMsg, ReplySender, ReplyTrace, ServerMsg};
use csar_core::manager::Manager;
use csar_core::proto::ServerId;
use csar_core::server::{Effect, IoServer};
use csar_obs::trace::{Phase, TraceSpan};
use csar_obs::Gauge;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Shared observer handle onto one server thread's engine state.
///
/// The engine itself lives on the thread; snapshots of the store and
/// stats are taken under a mutex so tests and the storage-report path
/// can inspect them without stopping the cluster.
pub(crate) type SharedServer = Arc<Mutex<IoServer>>;

/// Nanoseconds of `t` relative to the cluster epoch. All cluster
/// threads share one epoch `Instant` so server-side span timestamps
/// land on the same axis as the client engine's (DESIGN.md §15).
fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Run one I/O server thread until `Shutdown`.
///
/// Requests whose handling is deferred by the parity lock produce their
/// reply later (when the unlocking write arrives); the thread keeps the
/// reply mailbox of every in-flight request keyed by `(client, req_id)`.
///
/// When tracing is enabled on the engine's registry, the thread times
/// each request's queue wait (arrival to dispatch) and service (the
/// `handle_at` call) and piggybacks the spans — plus any §5.1
/// `lock_wait` span the engine attached to a woken reply — on the reply
/// tuple. The executor owns the clock: the engine state machine itself
/// never reads time, it only receives `now_ns` (so the sim can replay
/// the same state machine under a virtual clock).
pub(crate) fn run_server(
    id: ServerId,
    inbox: Arc<Mailbox<ServerMsg>>,
    shared: SharedServer,
    epoch: Instant,
) {
    debug_assert_eq!(shared.lock().unwrap_or_else(PoisonError::into_inner).id, id);
    let mut pending: HashMap<(u32, u64), ReplySender> = HashMap::new();
    // Queue-wait spans of requests parked on a parity lock: computed at
    // their dispatch, attached when the unlocking write finally produces
    // their reply.
    let mut held_spans: HashMap<(u32, u64), TraceSpan> = HashMap::new();
    // Before each dispatch the loop moves everything in the mailbox into
    // a local backlog under one lock (waiting only when the backlog is
    // empty); the backlog's depth is what the queue-depth gauge reports.
    // Each entry keeps the time it was taken for the `srv_queue` trace
    // phase.
    let mut taken: VecDeque<ServerMsg> = VecDeque::new();
    let mut backlog: VecDeque<(ServerMsg, Instant)> = VecDeque::new();
    'serve: loop {
        inbox.drain_into(backlog.is_empty(), &mut taken);
        let now = Instant::now();
        backlog.extend(taken.drain(..).map(|msg| (msg, now)));
        let Some((msg, arrived_at)) = backlog.pop_front() else { break };
        match msg {
            ServerMsg::Req { from, req_id, req, reply_to } => {
                pending.insert((from, req_id), reply_to);
                let ctx = req.trace_ctx();
                let dispatch_ns = ns_since(epoch, Instant::now());
                let (effects, traced) = {
                    // A panicked observer cannot corrupt the engine, so a
                    // poisoned lock is recovered rather than propagated.
                    let mut engine = shared.lock().unwrap_or_else(PoisonError::into_inner);
                    // Backlog plus the request in service.
                    engine.obs.gauge_set(Gauge::SrvQueueDepth, backlog.len() as u64 + 1);
                    let traced = engine.obs.tracing_enabled();
                    let effects = engine.handle_at(from, req_id, req, dispatch_ns);
                    (effects, traced)
                };
                let done_ns = ns_since(epoch, Instant::now());
                let arrived_ns = ns_since(epoch, arrived_at);
                let queue_span = ctx
                    .filter(|_| traced)
                    .map(|c| TraceSpan::server(c, Phase::SrvQueue, arrived_ns, dispatch_ns, id));
                let mut replied_current = false;
                let mut recorded: Vec<TraceSpan> = Vec::new();
                for e in effects {
                    let Effect::Reply { to, req_id: rid, resp, trace, lock_wait, .. } = e;
                    let Some(tx) = pending.remove(&(to, rid)) else { continue };
                    let batch: ReplyTrace = if traced {
                        let mut spans: Vec<TraceSpan> = Vec::with_capacity(3);
                        if to == from && rid == req_id {
                            replied_current = true;
                            spans.extend(queue_span);
                        } else {
                            // A parked request woken by this unlock; its
                            // own queue wait was stamped at its dispatch.
                            spans.extend(held_spans.remove(&(to, rid)));
                        }
                        if let Some(c) = trace {
                            // Service time: for a woken waiter this is the
                            // slice of the unlocking dispatch that served
                            // its deferred read.
                            spans.push(TraceSpan::server(c, Phase::Service, dispatch_ns, done_ns, id));
                        }
                        // `lock_wait` was already recorded into the engine's
                        // ring by `handle_at`; it only needs piggybacking.
                        recorded.extend_from_slice(&spans);
                        spans.extend(lock_wait);
                        if spans.is_empty() { None } else { Some(spans.into_boxed_slice()) }
                    } else {
                        None
                    };
                    // An op that already ended drops the reply with
                    // its last handle.
                    tx.push((rid, resp, batch));
                }
                if traced && !replied_current {
                    // Parked on the parity lock: keep the queue-wait span
                    // until the wake produces the reply.
                    if let Some(s) = queue_span {
                        held_spans.insert((from, req_id), s);
                        recorded.push(s);
                    }
                }
                if !recorded.is_empty() {
                    // Mirror the piggybacked spans into this server's own
                    // trace ring so a `GetStats` scrape sees them too.
                    let engine = shared.lock().unwrap_or_else(PoisonError::into_inner);
                    for s in &recorded {
                        engine.obs.record_trace(s);
                    }
                }
            }
            ServerMsg::Shutdown => break 'serve,
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
