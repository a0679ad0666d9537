//! Client-side operation drivers.
//!
//! A CSAR client performs an operation (write / read / degraded read) as
//! a dependency graph of per-server requests and XOR computations. The
//! drivers are **completion-driven state machines**: the executor feeds
//! one [`Completion`] at a time into [`OpDriver::poll`] and performs the
//! returned [`Effect`]s. Each server's reply immediately unblocks only
//! the work that depended on it — a parity-lock RMW for group *k* can
//! proceed while group *k+1*'s full-stripe writes are still in flight,
//! and a Hybrid write overlaps its overflow mirror appends with its
//! RAID5 body. The paper's §5.1 deadlock-avoidance rule — a write
//! touching two partial stripes issues the parity-lock read for the
//! lower-numbered group first and waits for *that grant* before issuing
//! the second — becomes a single edge in the graph rather than a
//! full-batch barrier.
//!
//! Drivers are pure state machines. One completion engine
//! ([`engine::OpEngine`]) runs them for both executors — threads and
//! channels in `csar-cluster`, the discrete-event model in `csar-sim` —
//! which supply only a clock, a wire and a compute model;
//! [`run_driver`] is the synchronous in-order reference. Parity XOR is
//! performed inside the driver when the inputs arrive; the `Compute`
//! effect reports the number of bytes processed so the simulator can
//! charge XOR time (the live executor completes it immediately).
//!
//! ## Contract
//!
//! * The first poll is `Completion::Begin`; every later poll reports the
//!   completion of exactly one previously returned effect, identified by
//!   its token. Tokens are unique per operation.
//! * Replies may be delivered **in any order** — the executor is free to
//!   reorder, and the drivers must produce byte-identical results.
//! * Effects within one returned `Vec` must be *issued* in order (the
//!   parity unlock-write of an RMW group is always emitted after that
//!   group's data writes), but their completions may arrive reordered.
//! * Once a `Done` effect has been returned the operation is over:
//!   further polls (late completions of cancelled requests) return no
//!   effects and must be tolerated by both sides.

pub mod engine;
pub mod read;
pub mod write;

use crate::error::CsarError;
use crate::proto::{Request, Response, ServerId};
use csar_obs::Ctr;
use csar_store::Payload;

pub use read::ReadDriver;
pub use write::WriteDriver;

/// Identifies one outstanding request or computation within an op.
pub type Token = u64;

/// One event fed into a driver: the operation starting, or the
/// completion of a previously returned [`Effect`].
#[derive(Debug)]
pub enum Completion {
    /// Start the operation (the first — and only the first — poll).
    Begin,
    /// A server replied to the `Send` effect carrying `token`.
    Reply {
        /// Token of the completed `Send` effect.
        token: Token,
        /// The server's reply.
        resp: Response,
    },
    /// The XOR work of the `Compute` effect carrying `token` finished.
    ComputeDone {
        /// Token of the completed `Compute` effect.
        token: Token,
    },
}

/// What the executor must do next. Issue order within one `Vec` is part
/// of the protocol; completion order is not.
#[derive(Debug)]
pub enum Effect {
    /// Transmit `req` to `srv`; feed the reply back as
    /// [`Completion::Reply`] with the same token.
    Send {
        /// Correlates the eventual reply with this request.
        token: Token,
        /// Destination I/O server.
        srv: ServerId,
        /// The request to transmit.
        req: Request,
    },
    /// Charge `bytes` of XOR work, then feed [`Completion::ComputeDone`]
    /// back. The actual computation has already happened inside the
    /// driver.
    Compute {
        /// Correlates the completion with this computation.
        token: Token,
        /// XOR bytes to charge to the compute model.
        bytes: u64,
    },
    /// Add `n` to counter `ctr` on the executor's registry (plan shape,
    /// degraded reconstructions). Drivers own no registry.
    Count {
        /// The counter.
        ctr: Ctr,
        /// Amount to add.
        n: u64,
    },
    /// The operation finished. No further effects will be produced.
    Done(Result<OpOutput, CsarError>),
}

/// Result of a completed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutput {
    /// A write completed; `bytes` is the logical byte count.
    Written {
        /// Logical bytes written.
        bytes: u64,
    },
    /// A read completed with the assembled payload.
    Read {
        /// The assembled read payload.
        payload: Payload,
    },
}

impl OpOutput {
    /// Unwrap a read payload.
    pub fn into_payload(self) -> Payload {
        match self {
            OpOutput::Read { payload } => payload,
            OpOutput::Written { .. } => panic!("expected read output"),
        }
    }
}

/// A client-side operation state machine (see the module docs for the
/// poll/completion contract).
pub trait OpDriver {
    /// Feed one completion, receive the effects it unblocks.
    fn poll(&mut self, c: Completion) -> Vec<Effect>;

    /// Batch-compat issue order, set before `Begin` (the completion
    /// engine's barrier-compat mode; see [`WriteDriver`]'s override).
    /// Drivers with no issue-order choice ignore it.
    fn set_batch_issue(&mut self, _on: bool) {}
}

/// Run a driver to completion against a synchronous per-request function
/// — the reference executor. Effects are performed strictly in issue
/// order, one at a time; this is the in-order baseline the out-of-order
/// executors must match byte for byte.
///
/// Useful for tests and for any caller with blocking transport access.
pub fn run_driver<D, F>(driver: &mut D, mut send: F) -> Result<OpOutput, CsarError>
where
    D: OpDriver + ?Sized,
    F: FnMut(ServerId, Request) -> Result<Response, CsarError>,
{
    use std::collections::VecDeque;
    let mut queue: VecDeque<Effect> = driver.poll(Completion::Begin).into();
    while let Some(effect) = queue.pop_front() {
        let more = match effect {
            Effect::Send { token, srv, req } => {
                let resp = send(srv, req)?;
                driver.poll(Completion::Reply { token, resp })
            }
            Effect::Compute { token, .. } => driver.poll(Completion::ComputeDone { token }),
            Effect::Count { .. } => continue,
            Effect::Done(result) => return result,
        };
        queue.extend(more);
    }
    Err(CsarError::Protocol("driver stalled without completing".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial driver: one request, one compute, then done.
    struct TwoStep {
        step: u8,
    }
    impl OpDriver for TwoStep {
        fn poll(&mut self, c: Completion) -> Vec<Effect> {
            match c {
                Completion::Begin => {
                    self.step = 1;
                    vec![Effect::Send {
                        token: 7,
                        srv: 0,
                        req: Request::Wipe,
                    }]
                }
                Completion::Reply { token, .. } => {
                    assert_eq!(token, 7);
                    self.step = 2;
                    vec![Effect::Compute { token: 8, bytes: 10 }]
                }
                Completion::ComputeDone { token } => {
                    assert_eq!(token, 8);
                    self.step = 3;
                    vec![Effect::Done(Ok(OpOutput::Written { bytes: 42 }))]
                }
            }
        }
    }

    #[test]
    fn run_driver_walks_all_phases() {
        let mut d = TwoStep { step: 0 };
        let out = run_driver(&mut d, |srv, req| {
            assert_eq!(srv, 0);
            assert!(matches!(req, Request::Wipe));
            Ok(Response::Done { bytes: 0 })
        })
        .unwrap();
        assert_eq!(out, OpOutput::Written { bytes: 42 });
        assert_eq!(d.step, 3);
    }

    /// A driver that never produces `Done` is a protocol error, not a
    /// hang.
    struct Staller;
    impl OpDriver for Staller {
        fn poll(&mut self, _c: Completion) -> Vec<Effect> {
            vec![]
        }
    }

    #[test]
    fn run_driver_reports_stalled_drivers() {
        let err = run_driver(&mut Staller, |_, _| Ok(Response::Done { bytes: 0 }));
        assert!(matches!(err, Err(CsarError::Protocol(_))));
    }
}
