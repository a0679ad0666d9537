//! End-to-end protocol tests: client drivers against real `IoServer`s.
//!
//! A minimal synchronous "cluster" — a vector of servers and a request
//! counter — runs every driver to completion via `run_driver`. These
//! tests pin the core invariants of the paper's schemes:
//! write-then-read fidelity for every scheme and alignment, parity-group
//! consistency after writes, hybrid overflow overlay/invalidation, the
//! §5.1 lock protocol under interleaving, and degraded reads after a
//! fail-stop.

use csar_core::client::maintain::{Scrub, ScrubReport};
use csar_core::client::waves::Waves;
use csar_core::client::{run_driver, OpOutput, ReadDriver, WriteDriver};
use csar_core::manager::FileMeta;
use csar_core::proto::Scheme;
use csar_core::server::{Effect as SrvEffect, ServerConfig};
use csar_core::{CsarError, Layout};
use csar_store::{Payload, SplitMix64, StreamKind};

mod common;
use common::MiniCluster;

/// A cluster whose servers use a small (64-byte) file-system block.
fn mini(n: u32) -> MiniCluster {
    MiniCluster::new(n, ServerConfig { fs_block: 64, ..ServerConfig::default() })
}

impl MiniCluster {
    fn write(&mut self, meta: &FileMeta, off: u64, data: &[u8]) -> Result<u64, CsarError> {
        let mut d = WriteDriver::new(meta, off, Payload::from_vec(data.to_vec()));
        match run_driver(&mut d, |srv, req| Ok(self.exchange(srv, req)))? {
            OpOutput::Written { bytes } => Ok(bytes),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn read(&mut self, meta: &FileMeta, off: u64, len: u64) -> Result<Vec<u8>, CsarError> {
        let failed = self.down.iter().position(|d| *d).map(|i| i as u32);
        let mut d = ReadDriver::new(meta, off, len, failed);
        let out = run_driver(&mut d, |srv, req| Ok(self.exchange(srv, req)))?;
        Ok(out.into_payload().as_bytes().expect("real data").to_vec())
    }

    /// The core scrub of `files` on the reference executor, around any
    /// failed server.
    fn scrub(&mut self, files: Vec<FileMeta>) -> ScrubReport {
        let failed = self.down.iter().position(|d| *d).map(|i| i as u32);
        let mut d = Waves::new(Scrub::new(files, failed));
        run_driver(&mut d, |srv, req| Ok(self.exchange(srv, req))).unwrap();
        d.task.report
    }

    /// Every RAID5/Hybrid parity group of `[0, upto)` holds real data and
    /// matches it.
    fn assert_scrub_clean(&mut self, meta: &FileMeta, upto: u64) {
        let report = self.scrub(vec![FileMeta { size: upto, ..meta.clone() }]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.groups_checked, upto.div_ceil(meta.layout.group_width_bytes()), "{report:?}");
    }
}

fn meta(scheme: Scheme, servers: u32, unit: u64) -> FileMeta {
    FileMeta { fh: 7, name: "t".into(), scheme, layout: Layout::new(servers, unit), size: 0 }
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

// ---------------------------------------------------------------------------
// Write/read fidelity for every scheme, every alignment class
// ---------------------------------------------------------------------------

fn roundtrip_case(scheme: Scheme, servers: u32, unit: u64, off: u64, len: usize) {
    let mut c = mini(servers);
    let m = meta(scheme, servers, unit);
    let data = pattern(len, off ^ len as u64);
    c.write(&m, off, &data).unwrap();
    let got = c.read(&m, off, len as u64).unwrap();
    assert_eq!(got, data, "{scheme:?} n={servers} unit={unit} off={off} len={len}");
}

#[test]
fn roundtrip_all_schemes_aligned_full_groups() {
    for scheme in [Scheme::Raid0, Scheme::Raid1, Scheme::Raid5, Scheme::Raid5NoLock, Scheme::Hybrid] {
        roundtrip_case(scheme, 4, 16, 0, 3 * 16 * 4); // 4 whole groups
    }
}

#[test]
fn roundtrip_all_schemes_unaligned() {
    for scheme in [Scheme::Raid0, Scheme::Raid1, Scheme::Raid5, Scheme::Raid5NoLock, Scheme::Hybrid] {
        // head partial + 2 full groups + tail partial
        roundtrip_case(scheme, 4, 16, 7, 3 * 16 * 2 + 20);
    }
}

#[test]
fn roundtrip_small_writes_within_one_group() {
    for scheme in [Scheme::Raid0, Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid] {
        roundtrip_case(scheme, 5, 16, 3, 10);
        roundtrip_case(scheme, 5, 16, 60, 9); // crosses one group boundary
    }
}

#[test]
fn roundtrip_two_servers() {
    // n=2: groups are single blocks; parity is effectively a mirror.
    for scheme in [Scheme::Raid5, Scheme::Hybrid] {
        roundtrip_case(scheme, 2, 8, 0, 64);
        roundtrip_case(scheme, 2, 8, 5, 20);
    }
}

#[test]
fn sequential_overwrites_roundtrip() {
    for scheme in [Scheme::Raid5, Scheme::Hybrid] {
        let mut c = mini(4);
        let m = meta(scheme, 4, 16);
        let a = pattern(200, 1);
        let b = pattern(100, 2);
        c.write(&m, 0, &a).unwrap();
        c.write(&m, 30, &b).unwrap();
        let mut want = a.clone();
        want[30..130].copy_from_slice(&b);
        assert_eq!(c.read(&m, 0, 200).unwrap(), want, "{scheme:?}");
    }
}

// ---------------------------------------------------------------------------
// Parity consistency
// ---------------------------------------------------------------------------

#[test]
fn raid5_parity_consistent_after_unaligned_writes() {
    let mut c = mini(4);
    let m = meta(Scheme::Raid5, 4, 16);
    c.write(&m, 0, &pattern(300, 3)).unwrap();
    c.write(&m, 37, &pattern(90, 4)).unwrap();
    c.write(&m, 5, &pattern(7, 5)).unwrap();
    c.assert_scrub_clean(&m, 300);
}

#[test]
fn hybrid_parity_describes_in_place_data_even_with_overflow() {
    let mut c = mini(4);
    let m = meta(Scheme::Hybrid, 4, 16);
    c.write(&m, 0, &pattern(300, 6)).unwrap();
    // Partial writes go to overflow; parity must STILL match the
    // in-place data (that is the crash-consistency invariant).
    c.write(&m, 10, &pattern(20, 7)).unwrap();
    c.write(&m, 100, &pattern(30, 8)).unwrap();
    c.assert_scrub_clean(&m, 300);
}

#[test]
fn raid5_nolock_leaves_same_parity_single_client() {
    // Without concurrency the no-lock variant computes identical parity.
    let mut c = mini(4);
    let m = meta(Scheme::Raid5NoLock, 4, 16);
    c.write(&m, 0, &pattern(300, 9)).unwrap();
    c.write(&m, 21, &pattern(50, 10)).unwrap();
    c.assert_scrub_clean(&m, 300);
}

/// Seeded corruption through the one scrub, on the reference executor:
/// per seed one RAID5 parity block, one Hybrid in-place data block (a
/// `WriteData` that invalidates nothing) and one RAID1 mirror block go
/// bad behind the drivers' backs, and the scrub names exactly those.
/// With a server failed it skips what it cannot verify, not failing.
#[test]
fn scrub_names_exactly_the_seeded_corruption() {
    use csar_core::proto::{ParityPart, ReqHeader, Request};
    use csar_core::Span;
    let (n, unit, size) = (4u32, 16u64, 300u64);
    for seed in 0..8u64 {
        let mut rng = SplitMix64::new(0x5C2B_0000 + seed);
        let mut c = mini(n);
        let files: Vec<FileMeta> = [Scheme::Raid5, Scheme::Hybrid, Scheme::Raid1]
            .into_iter()
            .enumerate()
            .map(|(i, s)| FileMeta { fh: i as u64 + 1, name: s.label().into(), size, ..meta(s, n, unit) })
            .collect();
        for f in &files {
            c.write(f, 0, &pattern(size as usize, rng.next_u64())).unwrap();
        }
        let ly = files[0].layout;
        let (groups, blocks) = (size.div_ceil(ly.group_width_bytes()), size.div_ceil(unit));
        let clean = c.scrub(files.clone());
        assert!(clean.is_clean(), "seed {seed}: {clean:?}");
        assert_eq!((clean.groups_checked, clean.mirrors_checked), (2 * groups, blocks));

        let (g5, bh, b1) = (rng.gen_range(0..groups), rng.gen_range(0..blocks), rng.gen_range(0..blocks));
        let rogue = Payload::from_vec(pattern(unit as usize, rng.next_u64()));
        let hdr = |f: &FileMeta| ReqHeader::new(f.fh, f.layout, f.scheme);
        let span = |b: u64| Span { logical_off: b * unit, len: unit };
        let parts = vec![ParityPart { group: g5, intra: 0, payload: rogue.clone() }];
        let spans = vec![(span(bh), rogue.clone())];
        let corrupt = [
            (ly.parity_server(g5), Request::WriteParity { hdr: hdr(&files[0]), parts, invalidate_mirror_spans: vec![] }),
            (
                ly.home_server(bh),
                Request::WriteData { hdr: hdr(&files[1]), spans, invalidate_primary: false, invalidate_mirror_spans: vec![] },
            ),
            (ly.mirror_server(b1), Request::WriteMirror { hdr: hdr(&files[2]), spans: vec![(span(b1), rogue)] }),
        ];
        for (srv, req) in corrupt {
            c.exchange(srv, req).into_done().unwrap();
        }
        let dirty = c.scrub(files.clone());
        let named = |i: usize, at: u64| vec![(files[i].name.clone(), at)];
        assert_eq!(dirty.bad_groups, [named(0, g5), named(1, ly.group_of_block(bh))].concat(), "seed {seed}");
        assert_eq!(dirty.bad_mirrors, named(2, b1), "seed {seed}");

        // Every group has a piece on every server; a RAID1 block is
        // checkable when neither copy is on the failed one.
        c.down[1] = true;
        let degraded = c.scrub(files.clone());
        c.down[1] = false;
        let checkable = |b: u64| ly.home_server(b) != 1 && ly.mirror_server(b) != 1;
        assert_eq!(degraded.groups_checked, 0, "seed {seed}");
        assert_eq!(degraded.mirrors_checked, (0..blocks).filter(|&b| checkable(b)).count() as u64);
        let bad = if checkable(b1) { named(2, b1) } else { vec![] };
        assert_eq!((degraded.bad_groups, degraded.bad_mirrors), (vec![], bad), "seed {seed}");
    }
}

/// Known-answer parity on stripe-unit-sized blocks: a fresh whole-group
/// body, an unaligned overwrite whose RMW head and tail wrap whole
/// groups, then a 97-byte sub-unit write. The plain read and the
/// degraded read around every server must equal a shadow copy, and
/// every group's parity must equal a reference fold of its data blocks.
fn known_answer_case(scheme: Scheme) {
    let (servers, unit) = (4u32, 4096u64);
    let mut c = mini(servers);
    let m = meta(scheme, servers, unit);
    let group = (servers as u64 - 1) * unit;
    let total = 4 * group;
    let mut shadow = vec![0u8; total as usize];
    let writes = [(0, total), (unit / 2, 2 * group + unit), (group + 17, 97)];
    for (seed, (off, len)) in writes.into_iter().enumerate() {
        let data = pattern(len as usize, 0xAB1D_E170 + seed as u64);
        c.write(&m, off, &data).unwrap();
        shadow[off as usize..(off + len) as usize].copy_from_slice(&data);
    }
    assert_eq!(c.read(&m, 0, total).unwrap(), shadow, "{scheme:?}: plain read diverged");
    for failed in 0..servers as usize {
        c.down[failed] = true;
        let got = c.read(&m, 0, total).unwrap();
        c.down[failed] = false;
        assert_eq!(got, shadow, "{scheme:?}: degraded read around server {failed} diverged");
    }
    c.assert_scrub_clean(&m, total);
}

#[test]
fn raid5_known_answer_parity_after_mixed_writes() {
    known_answer_case(Scheme::Raid5);
}

#[test]
fn hybrid_known_answer_parity_after_mixed_writes() {
    known_answer_case(Scheme::Hybrid);
}

// ---------------------------------------------------------------------------
// Hybrid overflow mechanics
// ---------------------------------------------------------------------------

#[test]
fn hybrid_partial_write_leaves_in_place_data_untouched() {
    let mut c = mini(4);
    let m = meta(Scheme::Hybrid, 4, 16);
    let base = pattern(3 * 16, 11); // exactly one group
    c.write(&m, 0, &base).unwrap();
    let patch = pattern(10, 12);
    c.write(&m, 4, &patch).unwrap();
    // Latest read sees the patch...
    let mut want = base.clone();
    want[4..14].copy_from_slice(&patch);
    assert_eq!(c.read(&m, 0, 48).unwrap(), want);
    // ...but the in-place data file still holds the original bytes.
    let srv0 = &c.servers[0];
    let in_place = srv0.store().read(m.fh, StreamKind::Data, 0, 16);
    assert_eq!(in_place.as_bytes().unwrap().as_ref(), &base[0..16]);
    // And overflow holds live bytes on the home + mirror servers.
    assert_eq!(srv0.overflow_live_bytes(m.fh), 10);
}

#[test]
fn hybrid_full_group_write_invalidates_overflow() {
    let mut c = mini(4);
    let m = meta(Scheme::Hybrid, 4, 16);
    c.write(&m, 0, &pattern(48, 13)).unwrap();
    c.write(&m, 4, &pattern(10, 14)).unwrap();
    assert!(c.servers[0].overflow_live_bytes(m.fh) > 0);
    // Full-group rewrite migrates everything back to RAID5 form.
    let fresh = pattern(48, 15);
    c.write(&m, 0, &fresh).unwrap();
    assert_eq!(c.servers[0].overflow_live_bytes(m.fh), 0);
    assert_eq!(c.read(&m, 0, 48).unwrap(), fresh);
    c.assert_scrub_clean(&m, 48);
}

#[test]
fn hybrid_repeated_small_writes_grow_overflow_log() {
    let mut c = mini(4);
    let m = meta(Scheme::Hybrid, 4, 16);
    for i in 0..5u64 {
        c.write(&m, 4, &pattern(8, 16 + i)).unwrap();
    }
    // Block 0's slot (one stripe unit) is allocated once and reused.
    let usage = c.servers[0].store().usage_for(m.fh);
    assert_eq!(usage.overflow, 16);
    assert_eq!(c.servers[0].overflow_live_bytes(m.fh), 8);
    // A partial in a different block allocates a second slot.
    c.write(&m, 16 + 2, &pattern(4, 30)).unwrap(); // block 1
    assert_eq!(c.servers[1].store().usage_for(m.fh).overflow, 16);
}

// ---------------------------------------------------------------------------
// Degraded reads
// ---------------------------------------------------------------------------

fn degraded_case(scheme: Scheme, servers: u32, unit: u64, kill: u32) {
    let mut c = mini(servers);
    let m = meta(scheme, servers, unit);
    let data = pattern((servers as usize) * unit as usize * 3 + 11, 99);
    c.write(&m, 0, &data).unwrap();
    c.down[kill as usize] = true;
    let got = c.read(&m, 0, data.len() as u64).unwrap();
    assert_eq!(got, data, "{scheme:?} degraded read after killing server {kill}");
}

#[test]
fn degraded_read_raid1() {
    for kill in 0..4 {
        degraded_case(Scheme::Raid1, 4, 16, kill);
    }
}

#[test]
fn degraded_read_raid5() {
    for kill in 0..4 {
        degraded_case(Scheme::Raid5, 4, 16, kill);
    }
}

#[test]
fn degraded_read_hybrid_including_overflow() {
    let mut c = mini(4);
    let m = meta(Scheme::Hybrid, 4, 16);
    let base = pattern(4 * 48, 21);
    c.write(&m, 0, &base).unwrap();
    // Overflowed partial on server 0's block, mirrored on server 1.
    let patch = pattern(12, 22);
    c.write(&m, 2, &patch).unwrap();
    let mut want = base.clone();
    want[2..14].copy_from_slice(&patch);
    // Kill the home server: latest data must come from parity
    // reconstruction + the overflow mirror.
    c.down[0] = true;
    assert_eq!(c.read(&m, 0, want.len() as u64).unwrap(), want);
}

#[test]
fn degraded_read_raid0_is_data_loss() {
    let mut c = mini(4);
    let m = meta(Scheme::Raid0, 4, 16);
    let data = pattern(100, 23);
    c.write(&m, 0, &data).unwrap();
    c.down[2] = true;
    match c.read(&m, 0, 100) {
        Err(CsarError::DataLoss(_)) => {}
        other => panic!("expected data loss, got {other:?}"),
    }
    // A range not touching the dead server still reads fine.
    let got = c.read(&m, 0, 16).unwrap();
    assert_eq!(got, data[..16]);
}

// ---------------------------------------------------------------------------
// §5.1 lock protocol under interleaving (manual message-level test)
// ---------------------------------------------------------------------------

#[test]
fn interleaved_rmw_writers_keep_parity_consistent() {
    // Two clients writing disjoint blocks of the SAME group, with their
    // effect streams interleaved step by step — the scenario §5.1's lock
    // exists for. The completion-driven interface lets a parked lock
    // request stall only its own op: the reply is routed back when the
    // other client's unlock wakes it.
    use csar_core::client::{Completion, Effect, OpDriver, Token};
    use std::collections::{HashMap, VecDeque};

    let servers = 6u32;
    let unit = 16u64;
    let m = meta(Scheme::Raid5, servers, unit);
    let mut c = mini(servers);
    // Seed the file: 2 groups of data.
    let base = pattern(2 * 5 * unit as usize, 31);
    c.write(&m, 0, &base).unwrap();

    // Client 0 writes block 0 of group 0; client 1 writes block 2 — both
    // partial-group RMWs contending for group 0's parity lock.
    let d1 = pattern(unit as usize, 32);
    let d2 = pattern(unit as usize, 33);
    let mut w1 = WriteDriver::new(&m, 0, Payload::from_vec(d1.clone()));
    let mut w2 = WriteDriver::new(&m, 2 * unit, Payload::from_vec(d2.clone()));
    let drivers: [&mut WriteDriver; 2] = [&mut w1, &mut w2];

    let mut queues: [VecDeque<Effect>; 2] = [
        drivers[0].poll(Completion::Begin).into(),
        drivers[1].poll(Completion::Begin).into(),
    ];
    let mut finished = [false, false];
    // Outstanding requests (parked or in flight): req_id → (client, token).
    let mut pending: HashMap<u64, (usize, Token)> = HashMap::new();
    let mut rounds = 0;
    while !(finished[0] && finished[1]) {
        rounds += 1;
        assert!(rounds < 10_000, "interleaved pump deadlocked");
        let mut progressed = false;
        // Alternate: one effect per client per round.
        for i in 0..2 {
            if finished[i] {
                continue;
            }
            let Some(e) = queues[i].pop_front() else { continue };
            progressed = true;
            match e {
                Effect::Send { token, srv, req } => {
                    let req_id = c.next_req;
                    c.next_req += 1;
                    pending.insert(req_id, (i, token));
                    // A reply batch may include replies for OTHER parked
                    // requests (an unlock waking a queued lock-read).
                    for SrvEffect::Reply { req_id: rid, resp, .. } in
                        c.servers[srv as usize].handle(i as u32, req_id, req)
                    {
                        let (di, tok) = pending.remove(&rid).expect("reply for unknown request");
                        let more = drivers[di].poll(Completion::Reply { token: tok, resp });
                        queues[di].extend(more);
                    }
                }
                Effect::Compute { token, .. } => {
                    let more = drivers[i].poll(Completion::ComputeDone { token });
                    queues[i].extend(more);
                }
                Effect::Count { .. } | Effect::Mark | Effect::Observe { .. } => {}
                Effect::Done(r) => {
                    r.unwrap();
                    finished[i] = true;
                }
            }
        }
        assert!(
            progressed || pending.values().any(|_| true),
            "both clients idle with nothing outstanding"
        );
    }
    assert!(pending.is_empty(), "requests left parked after both ops finished");

    let mut want = base.clone();
    want[0..unit as usize].copy_from_slice(&d1);
    want[2 * unit as usize..3 * unit as usize].copy_from_slice(&d2);
    assert_eq!(c.read(&m, 0, want.len() as u64).unwrap(), want);
    c.assert_scrub_clean(&m, want.len() as u64);
}

// ---------------------------------------------------------------------------
// Randomized write/read fuzzing against a flat reference file
// ---------------------------------------------------------------------------

#[test]
fn randomized_writes_match_reference_model() {
    for scheme in [Scheme::Raid0, Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid] {
        for n in [2u32, 3, 5] {
            let unit = 16u64;
            let mut rng = SplitMix64::new(1000 + n as u64);
            let mut c = mini(n);
            let m = meta(scheme, n, unit);
            let mut reference = vec![0u8; 600];
            for _ in 0..25 {
                let off = rng.gen_range(0..500);
                let len = rng.gen_usize(1..101).min(600 - off as usize);
                let data = pattern(len, rng.next_u64());
                c.write(&m, off, &data).unwrap();
                reference[off as usize..off as usize + len].copy_from_slice(&data);
            }
            let got = c.read(&m, 0, 600).unwrap();
            assert_eq!(got, reference, "{scheme:?} n={n}");
            if scheme.uses_parity() {
                c.assert_scrub_clean(&m, 600);
            }
        }
    }
}
