//! The RAID5 write hole, demonstrated — and the Hybrid scheme's
//! crash-consistency rationale, verified.
//!
//! §4 of the paper: partial-group writes under Hybrid go to overflow
//! regions because "the blocks cannot be updated in place because the
//! old blocks are needed to reconstruct the data in the stripe in the
//! event of a crash."
//!
//! These tests interrupt a client mid-write (applying only a prefix of
//! its final batch — a client crash, with messages already delivered
//! applied and the rest lost), then fail an *unrelated* server and try
//! to reconstruct its block from the group:
//!
//! * under **RAID5**, a crash after the in-place data write but before
//!   the parity write leaves parity describing the OLD data — the
//!   reconstruction of an innocent neighbouring block is silently
//!   corrupt (the classic write hole);
//! * under **Hybrid**, the same crash point is harmless at *every*
//!   prefix of the batch: in-place data and parity are untouched by
//!   partial writes, so neighbour reconstruction is always correct, and
//!   the partially-written update itself is either fully absent, fully
//!   present, or recoverable from whichever overflow copy landed.

use csar_core::client::{Completion, Effect, OpDriver, ReadDriver, WriteDriver};
use csar_core::manager::FileMeta;
use csar_core::proto::{Request, Scheme, ServerId};
use csar_core::server::ServerConfig;
use csar_core::Layout;
use csar_store::Payload;

mod common;
use common::MiniCluster;

const UNIT: u64 = 16;
const SERVERS: u32 = 4;

impl MiniCluster {
    fn write_all(&mut self, meta: &FileMeta, off: u64, data: &[u8]) {
        let mut d = WriteDriver::new(meta, off, Payload::from_vec(data.to_vec()));
        csar_core::client::run_driver(&mut d, |s, r| Ok(self.exchange(s, r))).unwrap();
    }

    /// Run a write but deliver only the first `deliver` requests of its
    /// FINAL effect wave — the client crashes mid-send. Returns the
    /// number of requests the final wave had. A wave is final when every
    /// effect in it is a write-class send; the driver's issue-order
    /// contract makes "apply a prefix" a faithful client crash.
    fn write_crash_after(&mut self, meta: &FileMeta, off: u64, data: &[u8], deliver: usize) -> usize {
        let mut d = WriteDriver::new(meta, off, Payload::from_vec(data.to_vec()));
        let mut wave = d.poll(Completion::Begin);
        loop {
            // Counter effects carry no message to lose.
            wave.retain(|e| !matches!(e, Effect::Count { .. }));
            let is_final = !wave.is_empty()
                && wave.iter().all(|e| {
                    matches!(
                        e,
                        Effect::Send {
                            req: Request::WriteData { .. }
                                | Request::WriteParity { .. }
                                | Request::ParityWriteUnlock { .. }
                                | Request::OverflowWrite { .. },
                            ..
                        }
                    )
                });
            if is_final {
                let total = wave.len();
                for e in wave.into_iter().take(deliver) {
                    let Effect::Send { srv, req, .. } = e else { unreachable!() };
                    self.exchange(srv, req);
                }
                return total; // crash: remaining messages lost
            }
            let mut next = Vec::new();
            for e in wave {
                match e {
                    Effect::Send { token, srv, req } => {
                        let resp = self.exchange(srv, req);
                        next.extend(d.poll(Completion::Reply { token, resp }));
                    }
                    Effect::Compute { token, .. } => {
                        next.extend(d.poll(Completion::ComputeDone { token }));
                    }
                    Effect::Count { .. } => unreachable!("dropped above"),
                    Effect::Done(r) => {
                        r.unwrap();
                        panic!("write completed; expected to crash in the final wave");
                    }
                }
            }
            wave = next;
        }
    }

    /// Degraded read with `failed` masked out, via the real read driver.
    fn degraded_read(&mut self, meta: &FileMeta, off: u64, len: u64, failed: ServerId) -> Vec<u8> {
        let mut d = ReadDriver::new(meta, off, len, Some(failed));
        let out = csar_core::client::run_driver(&mut d, |s, r| {
            assert_ne!(s, failed, "degraded read must avoid the failed server");
            Ok(self.exchange(s, r))
        })
        .unwrap();
        out.into_payload().as_bytes().unwrap().to_vec()
    }
}

fn meta(scheme: Scheme) -> FileMeta {
    FileMeta { fh: 1, name: "w".into(), scheme, layout: Layout::new(SERVERS, UNIT), size: 0 }
}

fn base_pattern() -> Vec<u8> {
    // Two full groups of recognisable data.
    (0..2 * 3 * UNIT).map(|i| (i % 251) as u8).collect()
}

#[test]
fn raid5_write_hole_corrupts_neighbour_reconstruction() {
    let mut c = MiniCluster::new(SERVERS, ServerConfig::default());
    let m = meta(Scheme::Raid5);
    let base = base_pattern();
    c.write_all(&m, 0, &base);

    // Partial RMW of block 0 (home server 0, group 0 = blocks 0,1,2,
    // parity on server 3). Crash after the data write but before the
    // unlock parity write: deliver only the first final-batch request
    // (WriteData — the unlock is last by construction).
    let update = vec![0xAAu8; UNIT as usize];
    let total = c.write_crash_after(&m, 0, &update, 1);
    assert!(total >= 2, "RMW final batch has data + parity messages");

    // Now server 1 dies. Reconstructing block 1 XORs block 0 (NEW data)
    // with the parity (describing the OLD block 0): the result is
    // corrupt even though block 1 was never written by anyone.
    let got = c.degraded_read(&m, UNIT, UNIT, 1);
    let want = &base[UNIT as usize..2 * UNIT as usize];
    assert_ne!(got, want, "the write hole silently corrupts an innocent block");
}

#[test]
fn hybrid_partial_write_is_crash_consistent_at_every_prefix() {
    let update = vec![0xAAu8; UNIT as usize];
    // A Hybrid partial write's final batch has 2 messages (overflow
    // primary + overflow mirror). Crash after 0, 1 and 2 deliveries.
    for deliver in 0..=2usize {
        let mut c = MiniCluster::new(SERVERS, ServerConfig::default());
        let m = meta(Scheme::Hybrid);
        let base = base_pattern();
        c.write_all(&m, 0, &base);
        let total = c.write_crash_after(&m, 0, &update, deliver);
        assert_eq!(total, 2);

        // Neighbour reconstruction is ALWAYS correct: in-place data and
        // parity were never touched.
        let got = c.degraded_read(&m, UNIT, UNIT, 1);
        let want = &base[UNIT as usize..2 * UNIT as usize];
        assert_eq!(got, want, "deliver={deliver}: neighbour intact");

        // And the updated block itself reads back as either the old or
        // the new version — never a torn mixture.
        let got = c.degraded_read(&m, 0, UNIT, 1); // unrelated failure
        let old = &base[..UNIT as usize];
        assert!(
            got == update || got == old,
            "deliver={deliver}: block 0 must be old or new, got {got:?}"
        );
        // With at least the primary copy delivered, the new data wins.
        if deliver >= 1 {
            assert_eq!(got, update, "deliver={deliver}");
        }
    }
}

#[test]
fn hybrid_crash_with_home_lost_recovers_from_mirror_copy() {
    // Both overflow copies delivered, then the home server (holding the
    // primary overflow copy) dies: the mirror copy on the next server
    // still serves the update.
    let mut c = MiniCluster::new(SERVERS, ServerConfig::default());
    let m = meta(Scheme::Hybrid);
    let base = base_pattern();
    c.write_all(&m, 0, &base);
    let update = vec![0xAAu8; UNIT as usize];
    c.write_all(&m, 0, &update); // block 0, home 0, mirror on 1

    let got = c.degraded_read(&m, 0, UNIT, 0);
    assert_eq!(got, update, "latest data survives losing the home server");
    // The rest of the group reconstructs fine too.
    let got = c.degraded_read(&m, 0, 3 * UNIT, 0);
    assert_eq!(&got[UNIT as usize..], &base[UNIT as usize..3 * UNIT as usize]);
}
