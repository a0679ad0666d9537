//! The transport between clients and nodes: one mailbox type.

use csar_core::manager::{MgrRequest, MgrResponse};
use csar_core::proto::{ClientId, Request, Response};
use csar_obs::trace::TraceSpan;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A many-producer, one-consumer queue: a `Mutex<VecDeque>` plus a
/// `Condvar`. Every channel of the live cluster is one of these: each
/// server's and the manager's request queue, and each operation's reply
/// queue.
///
/// A consumer stops on an explicit last message (`ServerMsg::Shutdown`,
/// `MgrMsg::Shutdown`), which [`Mailbox::close_with`] queues and closes
/// the mailbox behind in one locked step; a later [`Mailbox::push`]
/// fails at once, so a request sent to a stopped node is refused rather
/// than left waiting for a reply that never comes. Reply mailboxes are
/// never closed: a reply pushed for an operation that has already ended
/// is dropped with the last handle.
pub struct Mailbox<T> {
    queue: Mutex<Queue<T>>,
    ready: Condvar,
}

/// The messages of a [`Mailbox`] and whether it still takes new ones.
struct Queue<T> {
    msgs: VecDeque<T>,
    closed: bool,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self { queue: Mutex::new(Queue { msgs: VecDeque::new(), closed: false }), ready: Condvar::new() }
    }
}

impl<T> Mailbox<T> {
    /// An empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// A producer that panicked mid-push cannot leave the deque half
    /// written, so a poisoned lock is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, Queue<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `msg` and wake the consumer, or return `false` (dropping
    /// `msg`) if the mailbox is closed. The wake-up comes after the lock
    /// is released, so the woken thread does not block on it.
    pub fn push(&self, msg: T) -> bool {
        self.push_then(msg, false)
    }

    /// Append `last` and close the mailbox under the same lock, so no
    /// message can be queued behind it. Returns `false` (dropping
    /// `last`) if the mailbox was already closed.
    pub fn close_with(&self, last: T) -> bool {
        self.push_then(last, true)
    }

    fn push_then(&self, msg: T, close: bool) -> bool {
        {
            let mut queue = self.lock();
            if queue.closed {
                return false;
            }
            queue.msgs.push_back(msg);
            queue.closed = close;
        }
        self.ready.notify_one();
        true
    }

    /// The oldest message, waiting for one until `deadline` (`None`:
    /// forever). Returns `None` once the deadline has passed with the
    /// mailbox still empty.
    pub fn pop(&self, deadline: Option<Instant>) -> Option<T> {
        let mut queue = self.lock();
        loop {
            if let Some(msg) = queue.msgs.pop_front() {
                return Some(msg);
            }
            queue = match deadline {
                None => self.ready.wait(queue).unwrap_or_else(PoisonError::into_inner),
                Some(at) => {
                    let left = at.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())?;
                    self.ready.wait_timeout(queue, left).unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }

    /// Move every queued message to the back of `out`, in order, under
    /// one lock. With `wait` set, first block until there is one.
    pub fn drain_into(&self, wait: bool, out: &mut VecDeque<T>) {
        let mut queue = self.lock();
        while wait && queue.msgs.is_empty() {
            queue = self.ready.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
        out.append(&mut queue.msgs);
    }
}

/// Server-side trace spans piggybacked on a reply (queue wait, §5.1
/// lock wait, service — DESIGN.md §15). `None` when tracing is off, so
/// the disabled path moves no extra heap data per reply.
pub(crate) type ReplyTrace = Option<Box<[TraceSpan]>>;

/// Where a server sends a reply: `(req_id, response, its spans)`. Each
/// operation owns one; every request it sends carries a handle.
pub(crate) type ReplySender = Arc<Mailbox<(u64, Response, ReplyTrace)>>;

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
    Req { req: MgrRequest, reply_to: Arc<Mailbox<MgrResponse>> },
    Shutdown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pop_with_a_past_deadline_returns_at_once() {
        let mb: Mailbox<u32> = Mailbox::new();
        let t0 = Instant::now();
        assert_eq!(mb.pop(Some(t0)), None);
        assert!(t0.elapsed() < Duration::from_millis(500), "waited {:?}", t0.elapsed());
        // A queued message is still handed out past the deadline.
        mb.push(7);
        assert_eq!(mb.pop(Some(t0)), Some(7));
    }

    #[test]
    fn pop_waits_out_its_deadline() {
        let mb: Mailbox<u32> = Mailbox::new();
        let t0 = Instant::now();
        let wait = Duration::from_millis(20);
        assert_eq!(mb.pop(Some(t0 + wait)), None);
        assert!(t0.elapsed() >= wait, "returned after {:?}", t0.elapsed());
    }

    #[test]
    fn close_with_queues_its_message_last_and_refuses_later_pushes() {
        let mb: Mailbox<u32> = Mailbox::new();
        assert!(mb.push(1));
        assert!(mb.close_with(2));
        assert!(!mb.push(3), "a closed mailbox takes no more messages");
        assert!(!mb.close_with(4), "a mailbox closes once");
        let mut out = VecDeque::new();
        mb.drain_into(false, &mut out);
        assert_eq!(out, [1, 2]);
    }

    #[test]
    fn producers_lose_nothing_and_keep_their_own_order() {
        const PRODUCERS: u32 = 4;
        const EACH: u32 = 10_000;
        let mb: Mailbox<(u32, u32)> = Mailbox::new();
        let mut next = [0u32; PRODUCERS as usize];
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let mb = &mb;
                s.spawn(move || (0..EACH).for_each(|i| assert!(mb.push((p, i)))));
            }
            for _ in 0..PRODUCERS * EACH {
                let (p, i) = mb.pop(None).expect("no deadline");
                assert_eq!(i, next[p as usize], "producer {p} out of order");
                next[p as usize] += 1;
            }
        });
        assert_eq!(next, [EACH; PRODUCERS as usize]);
        assert_eq!(mb.pop(Some(Instant::now())), None, "nothing extra arrived");
    }

    #[test]
    fn drain_into_waits_for_a_message_then_takes_all_in_order() {
        let mb: Mailbox<u32> = Mailbox::new();
        let mut out = VecDeque::from([1]);
        mb.drain_into(false, &mut out);
        assert_eq!(out, [1], "an empty mailbox adds nothing without waiting");
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                mb.push(2);
                mb.push(3);
            });
            while out.len() < 3 {
                mb.drain_into(true, &mut out);
            }
        });
        assert_eq!(out, [1, 2, 3]);
    }
}
