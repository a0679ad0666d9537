//! Channel transport between clients and nodes.

use csar_core::manager::{MgrRequest, MgrResponse};
use csar_core::proto::{ClientId, Request, Response};
use csar_obs::trace::TraceSpan;
use std::sync::mpsc::Sender;

/// Server-side trace spans piggybacked on a reply (queue wait, §5.1
/// lock wait, service — DESIGN.md §15). `None` when tracing is off, so
/// the disabled path moves no extra heap data per reply.
pub(crate) type ReplyTrace = Option<Box<[TraceSpan]>>;

/// Where a server sends a reply: `(req_id, response, its spans)`.
pub(crate) type ReplySender = Sender<(u64, Response, ReplyTrace)>;

/// A message to an I/O server thread.
pub(crate) enum ServerMsg {
    /// A client request; the reply goes back through `reply_to` tagged
    /// with `req_id`. The server thread retains `reply_to` for requests
    /// parked on a parity lock.
    Req {
        from: ClientId,
        req_id: u64,
        req: Request,
        reply_to: ReplySender,
    },
    /// Stop the thread.
    Shutdown,
}

/// A message to the manager thread.
pub(crate) enum MgrMsg {
    Req { req: MgrRequest, reply_to: Sender<MgrResponse> },
    Shutdown,
}
