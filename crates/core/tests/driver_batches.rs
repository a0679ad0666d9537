//! White-box tests of the client drivers' *effect shapes*: which
//! requests go to which servers, in which issue order, and which
//! completions unblock them. These pin the protocol details the paper
//! specifies (§4, §5.1) independently of any server behaviour, plus the
//! pipelining contract: independent effects are issued without waiting
//! for unrelated completions.

use csar_core::client::{Completion, Effect, OpDriver, OpOutput, ReadDriver, Token, WriteDriver};
use csar_core::manager::FileMeta;
use csar_core::proto::{Request, Response, Scheme, ServerId};
use csar_core::{CsarError, Layout};
use csar_store::Payload;

const UNIT: u64 = 16;

fn meta(scheme: Scheme, servers: u32) -> FileMeta {
    FileMeta { fh: 1, name: "t".into(), scheme, layout: Layout::new(servers, UNIT), size: 1 << 20 }
}

fn payload(len: usize) -> Payload {
    Payload::from_vec(vec![7u8; len])
}

fn begin(d: &mut dyn OpDriver) -> Vec<Effect> {
    d.poll(Completion::Begin)
}

/// The `Send` effects, in issue order.
fn sends(effects: &[Effect]) -> Vec<(Token, ServerId, Request)> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send { token, srv, req } => Some((*token, *srv, req.clone())),
            _ => None,
        })
        .collect()
}

/// The `Compute` effects, in issue order.
fn computes(effects: &[Effect]) -> Vec<(Token, u64)> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Compute { token, bytes } => Some((*token, *bytes)),
            _ => None,
        })
        .collect()
}

fn done(effects: &[Effect]) -> Option<&Result<OpOutput, CsarError>> {
    effects.iter().find_map(|e| match e {
        Effect::Done(r) => Some(r),
        _ => None,
    })
}

/// A plausible success reply for any request (read-class replies carry
/// zero-filled payloads of the right size).
fn synth_reply(req: &Request) -> Response {
    match req {
        Request::ParityRead { len, .. } | Request::ParityReadLock { len, .. } => {
            Response::Data { payload: payload(*len as usize) }
        }
        Request::ReadData { spans, .. }
        | Request::ReadMirror { spans, .. }
        | Request::ReadLatest { spans, .. } => Response::Data {
            payload: payload(spans.iter().map(|s| s.len).sum::<u64>() as usize),
        },
        Request::OverflowFetch { .. } => Response::Runs { runs: vec![] },
        _ => Response::Done { bytes: req.payload_bytes() },
    }
}

/// Complete every outstanding effect FIFO until the driver reports Done.
fn drain(d: &mut dyn OpDriver, effects: Vec<Effect>) -> Result<OpOutput, CsarError> {
    let mut queue: std::collections::VecDeque<Effect> = effects.into();
    while let Some(e) = queue.pop_front() {
        let more = match e {
            Effect::Send { token, req, .. } => {
                d.poll(Completion::Reply { token, resp: synth_reply(&req) })
            }
            Effect::Compute { token, .. } => d.poll(Completion::ComputeDone { token }),
            Effect::Count { .. } => continue,
            Effect::Done(r) => return r,
        };
        queue.extend(more);
    }
    panic!("driver stalled without completing");
}

fn name(req: &Request) -> &'static str {
    match req {
        Request::WriteData { .. } => "WriteData",
        Request::WriteMirror { .. } => "WriteMirror",
        Request::WriteParity { .. } => "WriteParity",
        Request::ParityRead { .. } => "ParityRead",
        Request::ParityReadLock { .. } => "ParityReadLock",
        Request::ParityWriteUnlock { .. } => "ParityWriteUnlock",
        Request::ReadData { .. } => "ReadData",
        Request::ReadMirror { .. } => "ReadMirror",
        Request::ReadLatest { .. } => "ReadLatest",
        Request::OverflowWrite { .. } => "OverflowWrite",
        Request::OverflowFetch { .. } => "OverflowFetch",
        _ => "other",
    }
}

// ---------------------------------------------------------------------------
// Write effect shapes
// ---------------------------------------------------------------------------

#[test]
fn raid0_is_one_data_write_per_server() {
    // 4 servers, write covering blocks 0..4 → every server gets exactly
    // one WriteData and nothing else, all issued at Begin.
    let m = meta(Scheme::Raid0, 4);
    let mut d = WriteDriver::new(&m, 0, payload(4 * UNIT as usize));
    let effects = begin(&mut d);
    let batch = sends(&effects);
    assert_eq!(batch.len(), 4);
    assert!(computes(&effects).is_empty());
    let mut servers: Vec<ServerId> = batch.iter().map(|(_, s, _)| *s).collect();
    servers.sort_unstable();
    assert_eq!(servers, vec![0, 1, 2, 3]);
    assert!(batch.iter().all(|(_, _, r)| name(r) == "WriteData"));
    assert!(drain(&mut d, effects).is_ok());
}

#[test]
fn raid1_adds_mirrors_on_next_server() {
    let m = meta(Scheme::Raid1, 4);
    // One block (block 2, home 2, mirror 3).
    let mut d = WriteDriver::new(&m, 2 * UNIT, payload(UNIT as usize));
    let batch = sends(&begin(&mut d));
    assert_eq!(batch.len(), 2);
    assert_eq!((batch[0].1, name(&batch[0].2)), (2, "WriteData"));
    assert_eq!((batch[1].1, name(&batch[1].2)), (3, "WriteMirror"));
}

#[test]
fn raid5_aligned_write_needs_no_reads_or_locks() {
    // Exactly 2 whole groups: compute parity, then writes only.
    let m = meta(Scheme::Raid5, 4);
    let group = 3 * UNIT;
    let mut d = WriteDriver::new(&m, 0, payload(2 * group as usize));
    let effects = begin(&mut d);
    assert!(sends(&effects).is_empty(), "no reads, no locks");
    let comps = computes(&effects);
    assert_eq!(comps.len(), 1);
    let (token, bytes) = comps[0];
    assert_eq!(bytes, 2 * group, "parity fold reads each data byte once");
    let batch = sends(&d.poll(Completion::ComputeDone { token }));
    assert!(batch.iter().all(|(_, _, r)| matches!(name(r), "WriteData" | "WriteParity")));
    // Parity of groups 0 and 1 goes to their rotating owners.
    let parity_servers: Vec<ServerId> = batch
        .iter()
        .filter(|(_, _, r)| name(r) == "WriteParity")
        .map(|(_, s, _)| *s)
        .collect();
    assert_eq!(parity_servers.len(), 2);
    assert!(parity_servers.contains(&m.layout.parity_server(0)));
    assert!(parity_servers.contains(&m.layout.parity_server(1)));
}

#[test]
fn raid5_two_partials_serialize_lock_reads_low_group_first() {
    // §5.1: "the client serializes the reads for the parity blocks,
    // waiting for the read for the lower numbered block to complete
    // before issuing the read for the second block." Under the
    // completion-driven driver the gate is the lock *grant*: data reads
    // complete freely, but the higher group's lock-read is issued only
    // by the lower grant's completion.
    let m = meta(Scheme::Raid5, 4);
    let group = 3 * UNIT;
    // [group-8, group+8): tail of group 0 + head of group 1, no full part.
    let mut d = WriteDriver::new(&m, group - 8, payload(16));
    let initial = begin(&mut d);
    let batch_a = sends(&initial);
    let locks_a: Vec<u64> = batch_a
        .iter()
        .filter_map(|(_, _, r)| match r {
            Request::ParityReadLock { group, .. } => Some(*group),
            _ => None,
        })
        .collect();
    assert_eq!(locks_a, vec![0], "only the LOWER group's lock at Begin");

    // Complete every data read first: still no second lock, and no
    // compute (both partials are missing their parity).
    let mut lock0 = None;
    for (token, _, req) in &batch_a {
        if matches!(req, Request::ParityReadLock { .. }) {
            lock0 = Some((*token, req.clone()));
            continue;
        }
        let fx = d.poll(Completion::Reply { token: *token, resp: synth_reply(req) });
        assert!(sends(&fx).is_empty() && computes(&fx).is_empty() && done(&fx).is_none());
    }
    // The lower lock's grant issues the higher lock-read AND — since
    // group 0's data is already in — group 0's RMW compute, before
    // group 1's lock is even granted (the pipelining this PR buys).
    let (t0, lock_req) = lock0.expect("lock read present");
    let fx = d.poll(Completion::Reply { token: t0, resp: synth_reply(&lock_req) });
    let locks_b: Vec<u64> = sends(&fx)
        .iter()
        .filter_map(|(_, _, r)| match r {
            Request::ParityReadLock { group, .. } => Some(*group),
            _ => None,
        })
        .collect();
    assert_eq!(locks_b, vec![1], "the HIGHER group's lock strictly after the lower grant");
    assert_eq!(sends(&fx).len(), 1, "only the second lock read is unblocked");
    let comps = computes(&fx);
    assert_eq!(comps.len(), 1, "group 0's RMW proceeds while group 1's lock is in flight");

    // Group 0's compute completion issues its data write + unlock while
    // the second lock is still outstanding.
    let fx = d.poll(Completion::ComputeDone { token: comps[0].0 });
    let kinds: Vec<&str> = sends(&fx).iter().map(|(_, _, r)| name(r)).collect();
    assert_eq!(kinds, vec!["WriteData", "ParityWriteUnlock"]);
    assert!(done(&fx).is_none());
}

#[test]
fn raid5_nolock_issues_both_parity_reads_together() {
    let m = meta(Scheme::Raid5NoLock, 4);
    let group = 3 * UNIT;
    let mut d = WriteDriver::new(&m, group - 8, payload(16));
    let batch_a = sends(&begin(&mut d));
    let reads: Vec<u64> = batch_a
        .iter()
        .filter_map(|(_, _, r)| match r {
            Request::ParityRead { group, .. } => Some(*group),
            _ => None,
        })
        .collect();
    assert_eq!(reads, vec![0, 1], "no serialization without locks");
    assert!(batch_a.iter().all(|(_, _, r)| name(r) != "ParityReadLock"));
}

#[test]
fn raid5_unlock_writes_go_out_after_the_data() {
    // The paper's step 3 order ("write out the new data and new
    // parity"): the unlock-carrying parity write is issued last among
    // the partial's writes.
    let m = meta(Scheme::Raid5, 4);
    let mut d = WriteDriver::new(&m, 4, payload(8)); // partial in group 0
    let effects = begin(&mut d);
    let mut queue: std::collections::VecDeque<Effect> = effects.into();
    while let Some(e) = queue.pop_front() {
        match e {
            Effect::Send { token, req, .. } => {
                queue.extend(d.poll(Completion::Reply { token, resp: synth_reply(&req) }))
            }
            Effect::Compute { token, .. } => {
                let fx = d.poll(Completion::ComputeDone { token });
                let kinds: Vec<&str> = sends(&fx).iter().map(|(_, _, r)| name(r)).collect();
                assert_eq!(kinds.first().copied(), Some("WriteData"));
                assert_eq!(kinds.last().copied(), Some("ParityWriteUnlock"));
                return;
            }
            Effect::Count { .. } => {}
            Effect::Done(r) => panic!("finished before computing: {r:?}"),
        }
    }
    panic!("driver never computed");
}

#[test]
fn raid5_parity_rmw_touches_only_the_needed_range() {
    // A 4-byte write at intra offset 4 reads/writes exactly 4 parity
    // bytes at intra 4 — not the whole stripe unit.
    let m = meta(Scheme::Raid5, 4);
    let mut d = WriteDriver::new(&m, 4, payload(4));
    let batch_a = sends(&begin(&mut d));
    let (intra, len) = batch_a
        .iter()
        .find_map(|(_, _, r)| match r {
            Request::ParityReadLock { intra, len, .. } => Some((*intra, *len)),
            _ => None,
        })
        .expect("lock read present");
    assert_eq!((intra, len), (4, 4));
}

#[test]
fn full_stripe_writes_overlap_partial_rmw() {
    // A write covering whole group 0 plus a partial head of group 1:
    // the whole-group body must not wait for the partial's lock grant —
    // its parity compute is issued at Begin and its writes go out on
    // that compute's completion, with the lock-read still outstanding.
    let m = meta(Scheme::Raid5, 4);
    let group = 3 * UNIT;
    let mut d = WriteDriver::new(&m, 0, payload((group + 8) as usize));
    let effects = begin(&mut d);
    let lock_count =
        sends(&effects).iter().filter(|(_, _, r)| name(r) == "ParityReadLock").count();
    assert_eq!(lock_count, 1, "partial group 1 takes its lock at Begin");
    let comps = computes(&effects);
    assert_eq!(comps.len(), 1, "whole-group parity computes at Begin");
    // Complete ONLY the compute: the body's writes fan out although the
    // lock grant and the old-data reads are all still in flight.
    let fx = d.poll(Completion::ComputeDone { token: comps[0].0 });
    let body = sends(&fx);
    assert!(!body.is_empty());
    assert!(body.iter().all(|(_, _, r)| matches!(name(r), "WriteData" | "WriteParity")));
    assert!(done(&fx).is_none());
}

#[test]
fn batch_issue_holds_whole_group_work_behind_the_rmw() {
    // The barrier-compat issue order (the sim's paper-reproduction
    // mode): the same mixed write as
    // `full_stripe_writes_overlap_partial_rmw`, but under
    // `set_batch_issue` nothing computes at Begin, no write goes out
    // before every compute has finished, and ONE combined wave then
    // carries all of them with the parity unlock strictly last — the
    // retired batch engine's schedule.
    let m = meta(Scheme::Raid5, 4);
    let group = 3 * UNIT;
    let mut d = WriteDriver::new(&m, 0, payload((group + 8) as usize));
    d.set_batch_issue(true);
    let effects = begin(&mut d);
    assert!(computes(&effects).is_empty(), "whole-group compute is deferred");
    assert!(
        sends(&effects)
            .iter()
            .all(|(_, _, r)| matches!(name(r), "ParityReadLock" | "ReadData")),
        "Begin issues only the RMW reads"
    );
    let mut comps = Vec::new();
    for (token, _, req) in sends(&effects) {
        let fx = d.poll(Completion::Reply { token, resp: synth_reply(&req) });
        assert!(sends(&fx).is_empty(), "no write goes out before the computes finish");
        comps.extend(computes(&fx));
    }
    assert_eq!(comps.len(), 2, "partial RMW compute + whole-group compute");
    let fx = d.poll(Completion::ComputeDone { token: comps[0].0 });
    assert!(sends(&fx).is_empty(), "the write wave waits for the LAST compute");
    let fx = d.poll(Completion::ComputeDone { token: comps[1].0 });
    let wave = sends(&fx);
    assert!(wave.iter().any(|(_, _, r)| name(r) == "WriteData"));
    assert!(wave.iter().any(|(_, _, r)| name(r) == "WriteParity"));
    assert_eq!(
        name(&wave.last().expect("combined wave is non-empty").2),
        "ParityWriteUnlock",
        "the unlock closes the combined wave"
    );
    assert!(done(&fx).is_none());
    assert!(matches!(drain(&mut d, fx), Ok(OpOutput::Written { .. })));
}

#[test]
fn hybrid_partials_go_to_overflow_with_mirror_and_no_reads() {
    let m = meta(Scheme::Hybrid, 4);
    // Partial inside group 0, block 1 (home 1, mirror 2).
    let mut d = WriteDriver::new(&m, UNIT + 2, payload(6));
    let effects = begin(&mut d);
    assert!(computes(&effects).is_empty(), "no parity work for a pure-partial hybrid write");
    let batch = sends(&effects);
    assert_eq!(batch.len(), 2);
    let kinds: Vec<(ServerId, bool)> = batch
        .iter()
        .map(|(_, s, r)| match r {
            Request::OverflowWrite { mirror, .. } => (*s, *mirror),
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert!(kinds.contains(&(1, false)), "primary on the home server");
    assert!(kinds.contains(&(2, true)), "mirror on the next server");
}

#[test]
fn hybrid_full_groups_invalidate_overflow() {
    let m = meta(Scheme::Hybrid, 4);
    let group = 3 * UNIT;
    let mut d = WriteDriver::new(&m, 0, payload(group as usize));
    let effects = begin(&mut d);
    let comps = computes(&effects);
    assert_eq!(comps.len(), 1);
    let batch = sends(&d.poll(Completion::ComputeDone { token: comps[0].0 }));
    for (_, _, r) in &batch {
        if let Request::WriteData { invalidate_primary, .. } = r {
            assert!(*invalidate_primary, "full-group data writes invalidate overflow");
        }
    }
    // Every mirror-table invalidation rides on some request.
    let inval_count: usize = batch
        .iter()
        .map(|(_, _, r)| match r {
            Request::WriteData { invalidate_mirror_spans, .. } => invalidate_mirror_spans.len(),
            Request::WriteParity { invalidate_mirror_spans, .. } => invalidate_mirror_spans.len(),
            _ => 0,
        })
        .sum();
    assert_eq!(inval_count, 3, "one mirror invalidation per block of the group");
}

#[test]
fn npc_variant_transfers_blank_parity() {
    let m = meta(Scheme::Raid5NoParityCompute, 4);
    let group = 3 * UNIT;
    let mut d = WriteDriver::new(&m, 0, payload(group as usize));
    let effects = begin(&mut d);
    let comps = computes(&effects);
    assert_eq!(comps.len(), 1);
    assert_eq!(comps[0].1, 0, "npc skips the XOR");
    let batch = sends(&d.poll(Completion::ComputeDone { token: comps[0].0 }));
    let parity = batch
        .iter()
        .find_map(|(_, _, r)| match r {
            Request::WriteParity { parts, .. } => Some(parts[0].payload.clone()),
            _ => None,
        })
        .expect("parity write present");
    assert_eq!(parity, Payload::from_vec(vec![0u8; UNIT as usize]), "blank, same size");
}

// ---------------------------------------------------------------------------
// Degraded write planning
// ---------------------------------------------------------------------------

#[test]
fn degraded_raid0_is_rejected_when_affected() {
    let m = meta(Scheme::Raid0, 4);
    let mut d = WriteDriver::new_degraded(&m, 0, payload(UNIT as usize), Some(0));
    match done(&begin(&mut d)) {
        Some(Err(CsarError::DataLoss(_))) => {}
        other => panic!("expected DataLoss, got {other:?}"),
    }
    // Unaffected RAID0 writes still go through.
    let mut d = WriteDriver::new_degraded(&m, UNIT, payload(UNIT as usize), Some(0));
    let batch = sends(&begin(&mut d));
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0].1, 1);
}

#[test]
fn degraded_single_server_raid1_is_rejected() {
    // home == mirror on one server: a degraded write would silently
    // store nothing — must be refused instead.
    let m = FileMeta {
        fh: 1,
        name: "t".into(),
        scheme: Scheme::Raid1,
        layout: Layout::new(1, UNIT),
        size: 0,
    };
    let mut d = WriteDriver::new_degraded(&m, 0, payload(8), Some(0));
    match done(&begin(&mut d)) {
        Some(Err(CsarError::DataLoss(_))) => {}
        other => panic!("expected DataLoss, got {other:?}"),
    }
}

#[test]
fn degraded_raid1_writes_surviving_copy_only() {
    let m = meta(Scheme::Raid1, 4);
    // Block 2: home 2 (failed), mirror 3.
    let mut d = WriteDriver::new_degraded(&m, 2 * UNIT, payload(UNIT as usize), Some(2));
    let batch = sends(&begin(&mut d));
    assert_eq!(batch.len(), 1);
    assert_eq!((batch[0].1, name(&batch[0].2)), (3, "WriteMirror"));
}

#[test]
fn degraded_hybrid_partial_writes_single_overflow_copy() {
    let m = meta(Scheme::Hybrid, 4);
    // Block 1: home 1, mirror 2. Fail the home → only the mirror copy.
    let mut d = WriteDriver::new_degraded(&m, UNIT + 2, payload(6), Some(1));
    let effects = begin(&mut d);
    let batch = sends(&effects);
    assert_eq!(batch.len(), 1);
    match (&batch[0].1, &batch[0].2) {
        (2, Request::OverflowWrite { mirror: true, .. }) => {}
        other => panic!("expected mirror-only overflow write, got {other:?}"),
    }
}

#[test]
fn degraded_raid5_dead_parity_writes_data_unprotected() {
    let m = meta(Scheme::Raid5, 4);
    // Partial in group 0 (parity server = 3). Fail server 3.
    assert_eq!(m.layout.parity_server(0), 3);
    let mut d = WriteDriver::new_degraded(&m, 4, payload(8), Some(3));
    // No reads, no RMW: a plain in-place write at Begin.
    let effects = begin(&mut d);
    assert!(computes(&effects).is_empty());
    let batch = sends(&effects);
    assert_eq!(batch.len(), 1);
    assert_eq!(name(&batch[0].2), "WriteData");
    assert!(batch.iter().all(|(_, s, _)| *s != 3));
    assert!(drain(&mut d, effects).is_ok());
}

#[test]
fn degraded_raid5_dead_data_home_is_rejected() {
    let m = meta(Scheme::Raid5, 4);
    // Partial on block 0 (home 0). Fail server 0.
    let mut d = WriteDriver::new_degraded(&m, 4, payload(8), Some(0));
    match done(&begin(&mut d)) {
        Some(Err(CsarError::DataLoss(msg))) => {
            assert!(msg.contains("Hybrid"), "the error should point at the Hybrid scheme");
        }
        other => panic!("expected DataLoss, got {other:?}"),
    }
}

#[test]
fn degraded_full_group_skips_failed_server_but_keeps_parity() {
    let m = meta(Scheme::Raid5, 4);
    let group = 3 * UNIT;
    // Group 0: data on 0,1,2; parity on 3. Fail server 1.
    let mut d = WriteDriver::new_degraded(&m, 0, payload(group as usize), Some(1));
    let effects = begin(&mut d);
    let comps = computes(&effects);
    assert_eq!(comps.len(), 1);
    let batch = sends(&d.poll(Completion::ComputeDone { token: comps[0].0 }));
    assert!(batch.iter().all(|(_, s, _)| *s != 1), "nothing to the failed server");
    assert!(
        batch.iter().any(|(_, s, r)| *s == 3 && name(r) == "WriteParity"),
        "fresh parity implies the dead block's contents"
    );
}

// ---------------------------------------------------------------------------
// Read effect shapes
// ---------------------------------------------------------------------------

#[test]
fn hybrid_reads_use_read_latest() {
    let m = meta(Scheme::Hybrid, 4);
    let mut d = ReadDriver::new(&m, 0, 4 * UNIT, None);
    let batch = sends(&begin(&mut d));
    assert!(batch.iter().all(|(_, _, r)| name(r) == "ReadLatest"));
    let m5 = meta(Scheme::Raid5, 4);
    let mut d5 = ReadDriver::new(&m5, 0, 4 * UNIT, None);
    let batch5 = sends(&begin(&mut d5));
    assert!(batch5.iter().all(|(_, _, r)| name(r) == "ReadData"));
}

#[test]
fn degraded_raid5_read_reconstructs_per_lost_span() {
    let m = meta(Scheme::Raid5, 4);
    // Read block 0 (home 0, group 0: blocks 0,1,2, parity on 3); fail 0.
    let mut d = ReadDriver::new(&m, 0, UNIT, Some(0));
    let batch = sends(&begin(&mut d));
    // Two peer reads + one parity read, none to the failed server.
    assert!(batch.iter().all(|(_, s, _)| *s != 0));
    let kinds: Vec<&str> = batch.iter().map(|(_, _, r)| name(r)).collect();
    assert_eq!(kinds.iter().filter(|k| **k == "ReadData").count(), 2);
    assert_eq!(kinds.iter().filter(|k| **k == "ParityRead").count(), 1);
}

#[test]
fn degraded_hybrid_read_adds_overflow_mirror_fetch() {
    let m = meta(Scheme::Hybrid, 4);
    let mut d = ReadDriver::new(&m, 0, UNIT, Some(0));
    let batch = sends(&begin(&mut d));
    let kinds: Vec<(ServerId, &str)> = batch.iter().map(|(_, s, r)| (*s, name(r))).collect();
    assert!(kinds.contains(&(1, "OverflowFetch")), "mirror overlay from the next server");
}

#[test]
fn degraded_raid1_read_goes_to_mirror() {
    let m = meta(Scheme::Raid1, 4);
    let mut d = ReadDriver::new(&m, 0, UNIT, Some(0));
    let batch = sends(&begin(&mut d));
    assert_eq!(batch.len(), 1);
    assert_eq!((batch[0].1, name(&batch[0].2)), (1, "ReadMirror"));
}

#[test]
fn degraded_raid0_read_fails_fast() {
    let m = meta(Scheme::Raid0, 4);
    let mut d = ReadDriver::new(&m, 0, UNIT, Some(0));
    match done(&begin(&mut d)) {
        Some(Err(CsarError::DataLoss(_))) => {}
        other => panic!("expected DataLoss, got {other:?}"),
    }
}
