//! The transport between clients and nodes: one mailbox type.

use csar_core::manager::{MgrRequest, MgrResponse};
use csar_core::proto::{ClientId, Request, Response, ServerId};
use csar_obs::trace::TraceSpan;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A many-producer queue with at most one waiting consumer: a
/// `Mutex<VecDeque>` plus a `Condvar`. Every channel of the live
/// cluster is one of these: each server worker's and the manager's
/// request queue, and each operation's reply queue.
///
/// A producer wakes the consumer only when it is blocked waiting (the
/// waiter count kept under the lock), so a message to a consumer that
/// is still running costs no wake-up. [`Mailbox::queue`] appends
/// without waking at all; a producer that queues several messages rings
/// once with [`Mailbox::ring`] when it is done.
///
/// A server worker's mailbox is drained by whichever thread serves the
/// worker (its own, or inline a client op's; see `node.rs`), but only
/// the worker's own thread ever waits on it ([`Mailbox::wait_for_mail`]),
/// so there is still one waiter at most. An inline server that must
/// stop hands the rest of its batch back with [`Mailbox::put_back`].
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

/// The messages of a [`Mailbox`], whether it still takes new ones, and
/// whether its consumer is blocked with no wake-up on its way.
struct Queue<T> {
    msgs: VecDeque<T>,
    closed: bool,
    /// The waiter count: one waiting consumer at most, so 0 or 1. A
    /// producer that wakes the consumer clears it, so later producers
    /// skip the wake-up the consumer already has coming.
    waiting: bool,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        let queue = Queue { msgs: VecDeque::new(), closed: false, waiting: false };
        Self { queue: Mutex::new(queue), ready: Condvar::new() }
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

    /// Append `msg` and wake the consumer if it is waiting, or return
    /// `false` (dropping `msg`) if the mailbox is closed.
    pub fn push(&self, msg: T) -> bool {
        self.append(msg, false, true)
    }

    /// Append `msg` without waking the consumer, or return `false`
    /// (dropping `msg`) if the mailbox is closed. A blocked consumer
    /// sees it only after the next [`Mailbox::ring`] or `push`.
    pub fn queue(&self, msg: T) -> bool {
        self.append(msg, false, false)
    }

    /// Wake the consumer if it is waiting and a message is queued.
    pub fn ring(&self) {
        let wake = {
            let mut queue = self.lock();
            !queue.msgs.is_empty() && std::mem::take(&mut queue.waiting)
        };
        if wake {
            self.ready.notify_one();
        }
    }

    /// Append `last` and close the mailbox under the same lock, so no
    /// message can be queued behind it. Returns `false` (dropping
    /// `last`) if the mailbox was already closed.
    pub fn close_with(&self, last: T) -> bool {
        self.append(last, true, true)
    }

    /// The wake-up comes after the lock is released, so the woken
    /// thread does not block on it.
    fn append(&self, msg: T, close: bool, wake: bool) -> bool {
        let wake = {
            let mut queue = self.lock();
            if queue.closed {
                return false;
            }
            queue.msgs.push_back(msg);
            queue.closed = close;
            wake && std::mem::take(&mut queue.waiting)
        };
        if wake {
            self.ready.notify_one();
        }
        true
    }

    /// Block on the condvar once (for at most `left`, if given),
    /// counted as the waiter while blocked.
    fn wait<'a>(&self, mut queue: MutexGuard<'a, Queue<T>>, left: Option<Duration>) -> MutexGuard<'a, Queue<T>> {
        debug_assert!(!queue.waiting, "a mailbox has one waiting consumer");
        queue.waiting = true;
        let mut queue = match left {
            None => self.ready.wait(queue).unwrap_or_else(PoisonError::into_inner),
            Some(left) => self.ready.wait_timeout(queue, left).unwrap_or_else(PoisonError::into_inner).0,
        };
        queue.waiting = false;
        queue
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
            let left = match deadline {
                None => None,
                Some(at) => Some(at.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())?),
            };
            queue = self.wait(queue, left);
        }
    }

    /// Move every queued message to the back of `out`, in order, under
    /// one lock. With `wait` set, first block until there is one.
    pub fn drain_into(&self, wait: bool, out: &mut VecDeque<T>) {
        let mut queue = self.lock();
        while wait && queue.msgs.is_empty() {
            queue = self.wait(queue, None);
        }
        out.append(&mut queue.msgs);
    }

    /// Block until a message is queued or the mailbox is closed; take
    /// nothing.
    pub fn wait_for_mail(&self) {
        let mut queue = self.lock();
        while queue.msgs.is_empty() && !queue.closed {
            queue = self.wait(queue, None);
        }
    }

    /// Put `batch` back at the front, in order, ahead of every message
    /// queued since it was taken, leaving `batch` empty; then wake the
    /// consumer if it is waiting. A closed mailbox takes the batch too:
    /// its messages were accepted before it closed.
    pub fn put_back(&self, batch: &mut VecDeque<T>) {
        let wake = {
            let mut queue = self.lock();
            batch.append(&mut queue.msgs);
            std::mem::swap(batch, &mut queue.msgs);
            std::mem::take(&mut queue.waiting)
        };
        if wake {
            self.ready.notify_one();
        }
    }

    /// Whether no message is queued.
    pub fn is_empty(&self) -> bool {
        self.lock().msgs.is_empty()
    }

    /// Whether the consumer is blocked waiting, with no wake-up on its
    /// way.
    #[cfg(test)]
    pub(crate) fn has_waiter(&self) -> bool {
        self.lock().waiting
    }
}

/// Server-side trace spans piggybacked on a reply (queue wait, §5.1
/// lock wait, service — DESIGN.md §15). `None` when tracing is off, so
/// the disabled path moves no extra heap data per reply.
pub(crate) type ReplyTrace = Option<Box<[TraceSpan]>>;

/// Where a server sends a reply: `(req_id, response, its spans)`. Each
/// operation owns one; every request it sends carries a handle.
pub(crate) type ReplySender = Arc<Mailbox<(u64, Response, ReplyTrace)>>;

/// A message to a server worker.
pub(crate) enum ServerMsg {
    /// A client request to server `srv`; the reply goes back through
    /// `reply_to` tagged with `req_id`. The worker retains `reply_to`
    /// for requests parked on a parity lock. `queued_ns` is when the
    /// client queued a traced request (cluster-epoch ns, the start of
    /// its `srv_queue` span); 0 for an untraced one.
    Req {
        srv: ServerId,
        from: ClientId,
        req_id: u64,
        req: Request,
        reply_to: ReplySender,
        queued_ns: u64,
    },
    /// Stop the worker.
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

    #[test]
    fn a_queued_message_is_delivered_once_rung() {
        let mb: Mailbox<u32> = Mailbox::new();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| mb.pop(None));
            while !mb.lock().waiting {
                std::thread::yield_now();
            }
            assert!(mb.queue(1));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!consumer.is_finished(), "an unrung message must not wake the consumer");
            assert!(mb.lock().waiting, "the consumer is still owed a wake-up");
            mb.ring();
            assert_eq!(consumer.join().expect("consumer"), Some(1));
        });
        assert!(!mb.lock().waiting);
    }

    #[test]
    fn a_consumer_blocked_in_drain_into_wakes_on_the_ring() {
        let mb: Mailbox<u32> = Mailbox::new();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let mut out = VecDeque::new();
                mb.drain_into(true, &mut out);
                out
            });
            while !mb.lock().waiting {
                std::thread::yield_now();
            }
            assert!(mb.queue(1) && mb.queue(2));
            mb.ring();
            assert_eq!(consumer.join().expect("consumer"), [1, 2]);
        });
    }

    #[test]
    fn ringing_an_idle_mailbox_loses_nothing() {
        let mb: Mailbox<u32> = Mailbox::new();
        mb.ring();
        assert!(mb.queue(1));
        mb.ring();
        mb.ring();
        assert!(mb.push(2));
        assert_eq!(mb.pop(Some(Instant::now())), Some(1));
        assert_eq!(mb.pop(Some(Instant::now())), Some(2));
        // A ring with a waiting consumer but nothing queued leaves the
        // consumer waiting for the next message.
        std::thread::scope(|s| {
            let consumer = s.spawn(|| mb.pop(None));
            while !mb.lock().waiting {
                std::thread::yield_now();
            }
            mb.ring();
            assert!(mb.push(3));
            assert_eq!(consumer.join().expect("consumer"), Some(3));
        });
    }

    #[test]
    fn wait_for_mail_returns_once_the_mailbox_closes_with_nothing_queued() {
        let mb: Mailbox<u32> = Mailbox::new();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                mb.wait_for_mail();
                let mut out = VecDeque::new();
                mb.drain_into(false, &mut out);
                // Closed and empty now: the wait returns at once.
                mb.wait_for_mail();
                out
            });
            while !mb.lock().waiting {
                std::thread::yield_now();
            }
            assert!(mb.close_with(1));
            assert_eq!(consumer.join().expect("consumer"), [1]);
        });
        assert!(mb.is_empty());
    }

    #[test]
    fn a_batch_put_back_goes_ahead_of_later_messages_and_wakes_the_consumer() {
        let mb: Mailbox<u32> = Mailbox::new();
        assert!(mb.push(1) && mb.push(2));
        let mut batch = VecDeque::new();
        mb.drain_into(false, &mut batch);
        assert_eq!(batch.pop_front(), Some(1), "1 was served; 2 goes back");
        assert!(mb.push(3) && mb.close_with(4));
        mb.put_back(&mut batch);
        assert!(batch.is_empty(), "the batch is handed over whole");
        let mut out = VecDeque::new();
        mb.drain_into(false, &mut out);
        assert_eq!(out, [2, 3, 4], "ahead of later messages, on a closed mailbox too");
        let mb: Mailbox<u32> = Mailbox::new();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                mb.wait_for_mail();
                let mut out = VecDeque::new();
                mb.drain_into(false, &mut out);
                out
            });
            while !mb.lock().waiting {
                std::thread::yield_now();
            }
            mb.put_back(&mut VecDeque::from([5, 6]));
            assert_eq!(consumer.join().expect("consumer"), [5, 6]);
        });
        assert!(!mb.lock().waiting);
    }

    #[test]
    fn a_timed_out_pop_leaves_no_waiter() {
        let mb: Mailbox<u32> = Mailbox::new();
        assert_eq!(mb.pop(Some(Instant::now() + Duration::from_millis(5))), None);
        assert!(!mb.lock().waiting, "a timed-out consumer is no longer waiting");
    }
}
