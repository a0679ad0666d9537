//! The live cluster's transport queue ([`csar_cluster::Mailbox`]) against
//! std `mpsc`, the channel it replaced, kept here only as the reference.
//! Each iteration is one client op's wire pattern: a fresh reply queue,
//! one request to each of `n` server threads, and `n` replies back into
//! that queue. `n = 1` is a round trip (a Hybrid 4 KiB overwrite's
//! shape per request); `n = 5` is the fan-out of a 5-server full-stripe
//! write. EXPERIMENTS.md, "Mailbox transport", has the numbers.

use csar_bench::crit as criterion;
use criterion::{criterion_group, criterion_main, Criterion};
use csar_cluster::Mailbox;
use std::hint::black_box;
use std::sync::{mpsc, Arc};

/// A request and where to reply; `None` stops the server thread.
type MailReq = Option<(u64, Arc<Mailbox<u64>>)>;
type ChanReq = Option<(u64, mpsc::Sender<u64>)>;

fn bench_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport");
    for n in [1u64, 5] {
        let inboxes: Vec<Mailbox<MailReq>> = (0..n).map(|_| Mailbox::new()).collect();
        std::thread::scope(|s| {
            for inbox in &inboxes {
                s.spawn(move || {
                    while let Some(Some((v, reply))) = inbox.pop(None) {
                        reply.push(v);
                    }
                });
            }
            group.bench_function(format!("mailbox/{n}"), |b| {
                b.iter(|| {
                    let reply = Arc::new(Mailbox::new());
                    for (i, inbox) in (0..).zip(&inboxes) {
                        inbox.push(Some((black_box(i), Arc::clone(&reply))));
                    }
                    (0..n).map(|_| reply.pop(None).expect("no deadline")).sum::<u64>()
                })
            });
            for inbox in &inboxes {
                inbox.push(None);
            }
        });

        let (txs, rxs): (Vec<mpsc::Sender<ChanReq>>, Vec<_>) = (0..n).map(|_| mpsc::channel()).unzip();
        std::thread::scope(|s| {
            for rx in rxs {
                s.spawn(move || {
                    while let Ok(Some((v, reply))) = rx.recv() {
                        let _ = reply.send(v);
                    }
                });
            }
            group.bench_function(format!("mpsc/{n}"), |b| {
                b.iter(|| {
                    let (reply, replies) = mpsc::channel();
                    for (i, tx) in (0..).zip(&txs) {
                        tx.send(Some((black_box(i), reply.clone()))).expect("server thread alive");
                    }
                    (0..n).map(|_| replies.recv().expect("server thread alive")).sum::<u64>()
                })
            });
            for tx in &txs {
                let _ = tx.send(None);
            }
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transport);
criterion_main!(benches);
