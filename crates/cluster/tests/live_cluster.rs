//! Integration tests of the live threaded cluster: concurrency, failure
//! injection, degraded reads, rebuild, and storage accounting.

use csar_cluster::Cluster;
use csar_core::proto::{ReqHeader, Request, Scheme};
use csar_core::server::ServerConfig;
use csar_core::CsarError;
use csar_store::SplitMix64;
use std::time::{Duration, Instant};

fn cfg() -> ServerConfig {
    ServerConfig { fs_block: 512, ..ServerConfig::default() }
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Scrub a file: every parity group up to its size holds real data
/// that matches its parity, and every RAID1 mirror block its primary.
fn assert_scrub_clean(file: &csar_cluster::File) {
    let meta = file.meta();
    let groups = if meta.scheme.uses_parity() { meta.size.div_ceil(meta.layout.group_width_bytes()) } else { 0 };
    let report = file.scrub().unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.groups_checked, groups, "every group holds real data");
}

#[test]
fn create_open_write_read_all_schemes() {
    let cluster = Cluster::spawn(5, cfg());
    let client = cluster.client();
    for (i, scheme) in Scheme::MAIN.iter().enumerate() {
        let name = format!("file-{i}");
        let f = client.create(&name, *scheme, 1024).unwrap();
        let data = pattern(10_000, i as u64);
        f.write_at(123, &data).unwrap();
        assert_eq!(f.size(), 123 + 10_000);
        // Reopen through a second client.
        let f2 = cluster.client().open(&name).unwrap();
        assert_eq!(f2.read_at(123, 10_000).unwrap(), data);
        assert_scrub_clean(&f2);
    }
    cluster.shutdown();
}

#[test]
fn create_duplicate_fails_open_missing_fails() {
    let cluster = Cluster::spawn(2, cfg());
    let client = cluster.client();
    client.create("dup", Scheme::Raid0, 64).unwrap();
    assert!(client.create("dup", Scheme::Raid0, 64).is_err());
    assert!(client.open("missing").is_err());
    assert_eq!(client.list_files().unwrap().len(), 1);
    cluster.shutdown();
}

#[test]
fn concurrent_disjoint_writers_same_stripe_keep_parity_consistent() {
    // The §5.1 scenario: several clients write different blocks of the
    // same parity group concurrently. The parity lock must serialize the
    // read-modify-writes so the final parity matches the data.
    let n = 6u32;
    let unit = 2048u64;
    let cluster = Cluster::spawn(n, cfg());
    let client = cluster.client();
    let f = client.create("shared", Scheme::Raid5, unit).unwrap();
    // Seed one full group so old data exists.
    f.write_at(0, &pattern((n as usize - 1) * unit as usize, 42)).unwrap();

    // 5 writer threads, one block each, many rounds.
    let rounds = 20;
    std::thread::scope(|scope| {
        for w in 0..(n - 1) as u64 {
            let fw = cluster.client().open("shared").unwrap();
            scope.spawn(move || {
                for r in 0..rounds {
                    let data = pattern(unit as usize, w * 1000 + r);
                    fw.write_at(w * unit, &data).unwrap();
                }
            });
        }
    });
    assert_scrub_clean(&f);
    // Each block holds its writer's final round.
    for w in 0..(n - 1) as u64 {
        let want = pattern(unit as usize, w * 1000 + rounds - 1);
        assert_eq!(f.read_at(w * unit, unit).unwrap(), want, "writer {w}");
    }
    // The lock actually saw contention (not guaranteed per run, but with
    // 5 threads × 20 rounds on one group it is effectively certain).
    let meta = f.meta();
    let parity_srv = meta.layout.parity_server(0);
    let (_contended, acquisitions) = cluster.with_server(parity_srv, |s| s.lock_contention());
    assert_eq!(acquisitions, 5 * rounds, "every RMW acquired the lock");
    cluster.shutdown();
}

#[test]
fn concurrent_writers_two_partial_groups_no_deadlock() {
    // Writes straddling two groups take two locks in ascending group
    // order (§5.1's deadlock-avoidance rule). Writer w straddles the
    // boundary between groups w and w+1, so adjacent writers contend on
    // the shared group while each holds another lock — a chain that
    // would deadlock if lock acquisition were unordered. Data ranges are
    // disjoint (the paper's consistency guarantee covers exactly this).
    let n = 4u32;
    let unit = 512u64;
    let group = (n as u64 - 1) * unit;
    let writers = 4u64;
    let cluster = Cluster::spawn(n, cfg());
    let client = cluster.client();
    let f = client.create("straddle", Scheme::Raid5, unit).unwrap();
    let base = pattern(((writers + 1) * group) as usize, 7);
    f.write_at(0, &base).unwrap();

    std::thread::scope(|scope| {
        for w in 0..writers {
            let fw = cluster.client().open("straddle").unwrap();
            scope.spawn(move || {
                for r in 0..10u64 {
                    // Straddle the boundary between groups w and w+1.
                    let data = pattern(unit as usize, w * 100 + r);
                    fw.write_at((w + 1) * group - unit / 2, &data).unwrap();
                }
            });
        }
    });
    assert_scrub_clean(&f);
    // Every writer's final round is in place.
    let got = f.read_at(0, base.len() as u64).unwrap();
    let mut want = base.clone();
    for w in 0..writers {
        let off = ((w + 1) * group - unit / 2) as usize;
        want[off..off + unit as usize].copy_from_slice(&pattern(unit as usize, w * 100 + 9));
    }
    assert_eq!(got, want);
    cluster.shutdown();
}

#[test]
fn failure_degraded_read_and_rebuild_roundtrip() {
    for scheme in [Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid] {
        let cluster = Cluster::spawn(4, cfg());
        let client = cluster.client();
        let f = client.create("data", scheme, 1024).unwrap();
        let body = pattern(40_000, 77);
        f.write_at(0, &body).unwrap();
        // Hybrid: add an overflowed partial write so rebuild must restore
        // overflow logs too.
        let patch = pattern(300, 78);
        f.write_at(100, &patch).unwrap();
        let mut want = body.clone();
        want[100..400].copy_from_slice(&patch);

        cluster.fail_server(2);
        assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want, "{scheme:?} degraded");

        cluster.rebuild_server(2).unwrap();
        assert_eq!(cluster.failed_server(), None);
        assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want, "{scheme:?} rebuilt");

        // After rebuild a *different* failure is still survivable.
        cluster.fail_server(0);
        assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want, "{scheme:?} second failure");
        cluster.shutdown();
    }
}

#[test]
fn raid0_rebuild_reports_data_loss() {
    let cluster = Cluster::spawn(3, cfg());
    let client = cluster.client();
    let f = client.create("scratch", Scheme::Raid0, 256).unwrap();
    f.write_at(0, &pattern(5000, 5)).unwrap();
    cluster.fail_server(1);
    assert!(cluster.rebuild_server(1).is_err());
    cluster.shutdown();
}

#[test]
fn degraded_write_semantics_per_scheme() {
    // RAID0 has nowhere to put bytes homed on a dead server.
    let cluster = Cluster::spawn(3, cfg());
    let client = cluster.client();
    let f0 = client.create("r0", Scheme::Raid0, 256).unwrap();
    cluster.fail_server(0);
    assert!(f0.write_at(0, &[1, 2, 3]).is_err(), "RAID0 degraded write must fail");
    cluster.restore_server(0);

    // Redundant schemes keep accepting writes with one server down, and
    // the data is correct after rebuild.
    for (name, scheme) in [("r1", Scheme::Raid1), ("r5", Scheme::Raid5), ("hy", Scheme::Hybrid)] {
        let f = client.create(name, scheme, 256).unwrap();
        let base = pattern(3 * 256 * 4, 50);
        f.write_at(0, &base).unwrap();
        cluster.fail_server(0);
        // A group-aligned write and (for non-RAID5) an unaligned one.
        let big = pattern(3 * 256 * 2, 51);
        f.write_at(0, &big).unwrap();
        let mut want = base.clone();
        want[..big.len()].copy_from_slice(&big);
        if scheme != Scheme::Raid5 {
            let small = pattern(100, 52);
            f.write_at(40, &small).unwrap();
            want[40..140].copy_from_slice(&small);
        } else {
            // RAID5 partial on the dead server's data is refused —
            // offset 0..256 is block 0, homed on server 0.
            assert!(f.write_at(40, &[9; 100]).is_err(), "RAID5 partial on dead home");
            // A partial whose group *parity* lives on the dead server is
            // accepted (written unprotected until rebuild): with n=3 and
            // unit 256, group 2 covers bytes [1024, 1536) on servers 1
            // and 2, with parity on server ((2+1)·2) mod 3 = 0.
            let small = pattern(100, 53);
            f.write_at(1100, &small).unwrap();
            want[1100..1200].copy_from_slice(&small);
        }
        // Degraded reads see all of it.
        assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want, "{scheme:?} degraded");
        // Rebuild, then verify on a healthy cluster and after another
        // failure.
        cluster.rebuild_server(0).unwrap();
        assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want, "{scheme:?} rebuilt");
        cluster.fail_server(1);
        assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want, "{scheme:?} second failure");
        cluster.restore_server(1);
    }
    cluster.shutdown();
}

#[test]
fn storage_expansion_factors_match_schemes() {
    // Full-group-aligned writes: RAID0 = 1.0×, RAID1 = 2.0×,
    // RAID5 = Hybrid = 1 + 1/(n-1).
    let n = 5u32;
    let unit = 1024u64;
    let group = (n as u64 - 1) * unit;
    let cluster = Cluster::spawn(n, cfg());
    let client = cluster.client();
    let body = pattern(8 * group as usize, 3);
    for (name, scheme, want) in [
        ("r0", Scheme::Raid0, 1.0),
        ("r1", Scheme::Raid1, 2.0),
        ("r5", Scheme::Raid5, 1.25),
        ("hy", Scheme::Hybrid, 1.25),
    ] {
        let f = client.create(name, scheme, unit).unwrap();
        f.write_at(0, &body).unwrap();
        let rep = f.storage_report().unwrap();
        assert!(
            (rep.expansion() - want).abs() < 1e-9,
            "{scheme:?}: expansion {} want {want}",
            rep.expansion()
        );
    }
    cluster.shutdown();
}

#[test]
fn hybrid_small_writes_store_like_raid1_and_compact_recovers() {
    let n = 5u32;
    let unit = 1024u64;
    let cluster = Cluster::spawn(n, cfg());
    let client = cluster.client();
    let f = client.create("small", Scheme::Hybrid, unit).unwrap();
    // 100 small writes at 10 offsets, all inside stripe block 0: the
    // block gets one whole-unit overflow slot per copy, reused by every
    // write.
    for i in 0..100u64 {
        f.write_at((i % 10) * 100, &pattern(100, i)).unwrap();
    }
    let before = f.storage_report().unwrap().aggregate();
    assert_eq!(before.overflow + before.overflow_mirror, 2 * unit);
    // The §6.7 compaction packs down to the live bytes.
    f.compact_overflow().unwrap();
    let after = f.storage_report().unwrap().aggregate();
    assert_eq!(after.overflow + after.overflow_mirror, 2 * 10 * 100);
    // Contents unchanged.
    for i in 0..10u64 {
        let want = pattern(100, 90 + i);
        assert_eq!(f.read_at(i * 100, 100).unwrap(), want);
    }
    cluster.shutdown();
}

#[test]
fn phantom_payload_accounting_matches_real() {
    // A size-only workload produces the same Table 2 numbers as a real
    // one — the property the simulator relies on.
    let n = 4u32;
    let unit = 512u64;
    let writes: &[(u64, u64)] = &[(0, 4000), (100, 900), (5000, 1536), (7, 64)];
    let mut reports = Vec::new();
    for phantom in [false, true] {
        let cluster = Cluster::spawn(n, cfg());
        let client = cluster.client();
        let f = client.create("acct", Scheme::Hybrid, unit).unwrap();
        for &(off, len) in writes {
            if phantom {
                f.write_payload(off, csar_store::Payload::Phantom(len)).unwrap();
            } else {
                f.write_at(off, &pattern(len as usize, off)).unwrap();
            }
        }
        reports.push(f.storage_report().unwrap().aggregate());
        cluster.shutdown();
    }
    assert_eq!(reports[0], reports[1]);
}

#[test]
fn rebuild_restores_multiple_files_with_mixed_schemes() {
    let cluster = Cluster::spawn(4, cfg());
    let client = cluster.client();
    // Three files under different schemes, plus an empty one.
    let r1 = client.create("m-r1", Scheme::Raid1, 512).unwrap();
    let r5 = client.create("m-r5", Scheme::Raid5, 512).unwrap();
    let hy = client.create("m-hy", Scheme::Hybrid, 512).unwrap();
    client.create("m-empty", Scheme::Hybrid, 512).unwrap();
    let a = pattern(20_000, 1);
    let b = pattern(15_000, 2);
    let c = pattern(12_000, 3);
    r1.write_at(0, &a).unwrap();
    r5.write_at(0, &b).unwrap();
    hy.write_at(0, &c).unwrap();
    hy.write_at(77, &[0xCC; 333]).unwrap(); // overflowed partial
    let mut want_c = c.clone();
    want_c[77..410].copy_from_slice(&[0xCC; 333]);

    cluster.fail_server(3);
    cluster.rebuild_server(3).unwrap();
    assert_eq!(r1.read_at(0, a.len() as u64).unwrap(), a);
    assert_eq!(r5.read_at(0, b.len() as u64).unwrap(), b);
    assert_eq!(hy.read_at(0, want_c.len() as u64).unwrap(), want_c);
    // Every file is fully redundant again.
    for kill in 0..3u32 {
        cluster.fail_server(kill);
        assert_eq!(r1.read_at(0, a.len() as u64).unwrap(), a, "r1, kill {kill}");
        assert_eq!(hy.read_at(0, want_c.len() as u64).unwrap(), want_c, "hy, kill {kill}");
        cluster.restore_server(kill);
    }
    assert!(cluster.scrub().unwrap().is_clean());
    cluster.shutdown();
}

#[test]
fn reads_past_eof_zero_fill_and_empty_reads_are_noops() {
    let cluster = Cluster::spawn(3, cfg());
    let client = cluster.client();
    let f = client.create("eof", Scheme::Hybrid, 512).unwrap();
    f.write_at(0, &[7u8; 100]).unwrap();
    // Zero-length read.
    assert_eq!(f.read_at(50, 0).unwrap(), Vec::<u8>::new());
    // Read crossing EOF zero-fills (UNIX semantics differ, but CSAR's
    // read path synthesises zeros for unwritten ranges).
    let got = f.read_at(90, 20).unwrap();
    assert_eq!(&got[..10], &[7u8; 10]);
    assert_eq!(&got[10..], &[0u8; 10]);
    cluster.shutdown();
}

#[test]
fn files_are_isolated_from_each_other() {
    let cluster = Cluster::spawn(3, cfg());
    let client = cluster.client();
    let a = client.create("iso-a", Scheme::Hybrid, 512).unwrap();
    let b = client.create("iso-b", Scheme::Hybrid, 512).unwrap();
    a.write_at(0, &pattern(5000, 10)).unwrap();
    b.write_at(0, &pattern(5000, 20)).unwrap();
    a.write_at(100, &[1; 50]).unwrap();
    b.write_at(100, &[2; 50]).unwrap();
    let ga = a.read_at(100, 50).unwrap();
    let gb = b.read_at(100, 50).unwrap();
    assert_eq!(ga, vec![1; 50]);
    assert_eq!(gb, vec![2; 50]);
    cluster.shutdown();
}

#[test]
fn reply_timeout_names_the_unresponsive_server() {
    // A client holds group 0's parity lock and never releases it. A
    // second client's RMW parks behind the lock; with a short reply
    // deadline the operation must fail with a Timeout naming the parity
    // server (ParityReadLock is never retried — a slow grant means
    // "parked", not "lost").
    let n = 4u32;
    let unit = 512u64;
    let cluster = Cluster::spawn(n, cfg());
    cluster.set_reply_timeout(Duration::from_millis(50));
    let client = cluster.client();
    let f = client.create("locked", Scheme::Raid5, unit).unwrap();
    f.write_at(0, &pattern(3 * unit as usize, 11)).unwrap();

    let meta = f.meta();
    let hdr = ReqHeader::new(meta.fh, meta.layout, meta.scheme);
    let parity_srv = meta.layout.parity_server(0);
    client
        .send_raw(parity_srv, Request::ParityReadLock { hdr, group: 0, intra: 0, len: unit })
        .unwrap();

    let err = f.write_at(0, &[9u8; 10]).unwrap_err();
    match err {
        CsarError::Timeout { server, waited_ms } => {
            assert_eq!(server, parity_srv, "timeout must name the lock-holding server");
            assert!(waited_ms >= 50, "deadline was 50ms, waited {waited_ms}ms");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn reply_timeout_of_duration_max_never_expires() {
    // `Duration::MAX` is the natural "never time out": every deadline
    // saturates instead of overflowing the clock, so a whole-group
    // write, a lock-taking RMW overwrite and a read all complete.
    let cluster = Cluster::spawn(4, cfg());
    cluster.set_reply_timeout(Duration::MAX);
    let f = cluster.client().create("forever", Scheme::Raid5, 512).unwrap();
    let mut want = pattern(3 * 512, 12);
    f.write_at(0, &want).unwrap();
    f.write_at(519, &[7; 256]).unwrap();
    want[519..775].fill(7);
    assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want);
    assert_scrub_clean(&f);
    cluster.shutdown();
}

#[test]
fn reply_timeout_past_the_clock_range_never_expires() {
    // A finite timeout too large for `Instant + Duration` waits forever,
    // on the manager round trip (create) as on the data path.
    let cluster = Cluster::spawn(4, cfg());
    cluster.set_reply_timeout(Duration::from_secs(u64::MAX / 4));
    let f = cluster.client().create("huge", Scheme::Raid5, 512).unwrap();
    let mut want = pattern(3 * 512, 13);
    f.write_at(0, &want).unwrap();
    f.write_at(519, &[5; 256]).unwrap();
    want[519..775].fill(5);
    assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want);
    cluster.shutdown();
}

#[test]
fn a_read_after_shutdown_fails_at_once() {
    // Shutting the cluster down closes every server's mailbox behind its
    // stop message, so a read through a `File` that outlived the cluster
    // is refused on the spot instead of waiting out its reply deadline
    // and both retries.
    let cluster = Cluster::spawn(4, cfg());
    cluster.set_reply_timeout(Duration::from_millis(50));
    let f = cluster.client().create("orphan", Scheme::Raid5, 512).unwrap();
    f.write_at(0, &pattern(3 * 512, 14)).unwrap();
    cluster.shutdown();
    match f.read_at(0, 3 * 512) {
        Err(CsarError::Transport(_)) => {}
        other => panic!("expected Transport, got {other:?}"),
    }
}

#[test]
fn a_manager_request_after_shutdown_fails_before_its_deadline() {
    let timeout = Duration::from_secs(2);
    let cluster = Cluster::spawn(4, cfg());
    cluster.set_reply_timeout(timeout);
    let client = cluster.client();
    client.create("gone", Scheme::Hybrid, 512).unwrap();
    cluster.shutdown();
    let t0 = Instant::now();
    let res = client.open("gone");
    assert!(t0.elapsed() < timeout, "open waited {:?} for a stopped manager", t0.elapsed());
    assert!(matches!(res, Err(CsarError::Transport(_))), "expected Transport");
}

#[test]
fn one_file_handle_supports_concurrent_operations() {
    // No per-operation lock: a single File shared across threads runs
    // its reads and writes concurrently and correctly.
    let n = 5u32;
    let unit = 1024u64;
    let group = (n as u64 - 1) * unit;
    let cluster = Cluster::spawn(n, cfg());
    let client = cluster.client();
    let f = client.create("conc", Scheme::Hybrid, unit).unwrap();
    f.write_at(0, &pattern(8 * group as usize, 9)).unwrap();

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let f = &f;
            scope.spawn(move || {
                for r in 0..10u64 {
                    let data = pattern(group as usize, t * 31 + r);
                    f.write_at(t * 2 * group, &data).unwrap();
                    assert_eq!(f.read_at(t * 2 * group, group).unwrap(), data, "thread {t}");
                }
            });
        }
    });
    assert_scrub_clean(&f);
    let st = f.op_stats();
    assert!(st.ops >= 81, "4 threads x 10 rounds x 2 ops + seed, got {}", st.ops);
    cluster.shutdown();
}

#[test]
fn pipelined_rmw_keeps_multiple_requests_in_flight() {
    // A write straddling two parity groups issues its lock and old-data
    // reads together: the transport must report more than one request in
    // flight at once (the barrier engine never could within a phase of
    // a single-partial op).
    let n = 4u32;
    let unit = 512u64;
    let group = (n as u64 - 1) * unit;
    let cluster = Cluster::spawn(n, cfg());
    let client = cluster.client();
    let f = client.create("pipe", Scheme::Raid5, unit).unwrap();
    f.write_at(0, &pattern(2 * group as usize, 3)).unwrap();

    let before = f.op_stats();
    f.write_at(group - unit / 2, &pattern(unit as usize, 4)).unwrap();
    let st = f.op_stats();
    assert!(st.requests > before.requests);
    assert!(st.max_in_flight >= 2, "straddling RMW pipelines, got {}", st.max_in_flight);
    assert_scrub_clean(&f);
    cluster.shutdown();
}

#[test]
fn remove_then_recreate_gets_fresh_handle() {
    let cluster = Cluster::spawn(3, cfg());
    let client = cluster.client();
    let f = client.create("tmp", Scheme::Raid0, 512).unwrap();
    let old_fh = f.meta().fh;
    f.write_at(0, &[1, 2, 3]).unwrap();
    client.remove("tmp").unwrap();
    assert!(client.open("tmp").is_err());
    let f2 = client.create("tmp", Scheme::Raid1, 512).unwrap();
    assert_ne!(f2.meta().fh, old_fh, "handles are never reused");
    assert_eq!(f2.size(), 0);
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Metadata manager traffic: data operations go straight to the servers,
// and only a write that extends the file past the size a handle knows
// reports to the manager.

/// Manager round trips the cluster's clients have made so far.
fn mgr_requests(cluster: &Cluster) -> u64 {
    cluster.obs().snapshot().counter("mgr_requests")
}

/// Run `op` and return how many manager round trips it cost.
fn mgr_cost(cluster: &Cluster, op: impl FnOnce()) -> u64 {
    let before = mgr_requests(cluster);
    op();
    mgr_requests(cluster) - before
}

#[test]
fn only_eof_extending_writes_contact_the_manager() {
    let n = 5u32;
    let unit = 1024u64;
    let group = (n as u64 - 1) * unit;
    let groups = 6u64;
    let filled = groups * group;
    for scheme in [Scheme::Hybrid, Scheme::Raid5] {
        let cluster = Cluster::spawn(n, cfg());
        let client = cluster.client();
        let f = client.create("mgr", scheme, unit).unwrap();
        let prefill = mgr_cost(&cluster, || {
            for g in 0..groups {
                f.write_at(g * group, &pattern(group as usize, g)).unwrap();
            }
        });
        assert_eq!(prefill, groups, "{scheme:?}: one request per extending whole-group write");
        // A second handle, opened before the file grows any further.
        let stale = cluster.client().open("mgr").unwrap();
        assert_eq!(stale.size(), filled);

        // Overwrite the whole prefilled region with whole groups, a
        // one-block partial per group and a small unaligned tail, then
        // read it all back.
        let overwrite = mgr_cost(&cluster, || {
            for g in 0..groups {
                f.write_at(g * group, &pattern(group as usize, 100 + g)).unwrap();
                f.write_at(g * group + unit, &pattern(unit as usize, 200 + g)).unwrap();
            }
            f.write_at(filled - 100, &pattern(100, 7)).unwrap();
            assert_eq!(f.read_at(0, filled).unwrap().len() as u64, filled);
        });
        assert_eq!(overwrite, 0, "{scheme:?}: overwrites and reads never contact the manager");

        let end = filled + 3 * unit;
        let extend = mgr_cost(&cluster, || {
            f.write_at(filled, &pattern(3 * unit as usize, 8)).unwrap();
        });
        assert_eq!(extend, 1, "{scheme:?}: one extending write, one request");
        assert_eq!(f.size(), end);

        // The stale handle pays nothing inside the size it knows, and one
        // request past it, even though the manager already knows more.
        let inside = mgr_cost(&cluster, || {
            stale.write_at(0, &pattern(unit as usize, 9)).unwrap();
        });
        assert_eq!(inside, 0, "{scheme:?}: write inside the stale size");
        let past = mgr_cost(&cluster, || {
            stale.write_at(filled, &pattern(unit as usize, 10)).unwrap();
        });
        assert_eq!(past, 1, "{scheme:?}: write past the stale size");
        assert_eq!(stale.size(), filled + unit);
        let third = cluster.client().open("mgr").unwrap();
        assert_eq!(third.size(), end, "{scheme:?}: the manager keeps the max");
        assert_scrub_clean(&f);
        cluster.shutdown();
    }
}

#[test]
fn concurrent_extending_writes_leave_the_larger_end() {
    let unit = 1024u64;
    for scheme in [Scheme::Hybrid, Scheme::Raid5] {
        let cluster = Cluster::spawn(5, cfg());
        let client = cluster.client();
        let f = client.create("grow", scheme, unit).unwrap();
        for round in 0..16u64 {
            // Two threads extend the same `File` to different ends; which
            // of them reaches the further end alternates per round.
            let base = round * 4 * unit;
            let (near, far) = (base + unit, base + 3 * unit);
            let ends = if round % 2 == 0 { [near, far] } else { [far, near] };
            std::thread::scope(|scope| {
                for (i, end) in ends.into_iter().enumerate() {
                    let f = &f;
                    let data = pattern(unit as usize, round * 2 + i as u64);
                    scope.spawn(move || f.write_at(end - unit, &data).unwrap());
                }
            });
            assert_eq!(f.size(), far, "{scheme:?} round {round}");
            assert_eq!(client.open("grow").unwrap().size(), far, "{scheme:?} round {round}");
        }
        cluster.shutdown();
    }
}

#[test]
fn extending_write_to_a_removed_file_fails_and_keeps_the_cached_size() {
    let cluster = Cluster::spawn(5, cfg());
    let client = cluster.client();
    let f = client.create("gone", Scheme::Hybrid, 1024).unwrap();
    f.write_at(0, &pattern(4096, 1)).unwrap();
    let fh = f.meta().fh;
    client.remove("gone").unwrap();
    let writes = || cluster.obs().snapshot().hist("op_write_ns").map_or(0, |h| h.count);
    let before = writes();
    assert_eq!(f.write_at(4000, &pattern(1000, 2)), Err(CsarError::NoSuchHandle(fh)));
    assert_eq!(f.size(), 4096, "a refused SetSize must not raise the cached size");
    assert_eq!(writes(), before, "a failed write records no op_write_ns sample");
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Causal tracing & flight recorder (DESIGN.md §15)

/// Walk a flight-recorder JSON dump's trace trees, calling `f` on every
/// node (phase name, aux).
fn walk_dump(dump: &str, f: &mut impl FnMut(&str, u64)) {
    fn walk_node(n: &csar_store::Json, f: &mut impl FnMut(&str, u64)) {
        let phase = n.field("phase").ok().and_then(|p| p.as_str().map(str::to_string));
        let aux = n.u64_field("aux").unwrap_or(0);
        if let Some(p) = phase {
            f(&p, aux);
        }
        if let Ok(kids) = n.field("children") {
            for k in kids.as_array().unwrap_or(&[]) {
                walk_node(k, f);
            }
        }
    }
    let doc = csar_store::Json::parse(dump).expect("dump must be valid JSON");
    for t in doc.field("trees").unwrap().as_array().unwrap() {
        walk_node(t, f);
    }
}

#[test]
fn tracing_stitches_client_and_server_phases_into_one_tree() {
    use csar_obs::trace::{build_trees, Phase};
    let n = 5u32;
    let unit = 512u64;
    let cluster = Cluster::spawn(n, cfg());
    let client = cluster.client();
    let f = client.create("traced", Scheme::Raid5, unit).unwrap();
    f.write_at(0, &pattern((n as usize - 1) * unit as usize, 20)).unwrap();
    assert!(cluster.flight_spans().is_empty(), "tracing is off by default");
    cluster.set_tracing(true);
    f.write_at(0, &pattern((n as usize - 1) * unit as usize, 21)).unwrap();
    let data = f.read_at(0, unit).unwrap();
    cluster.set_tracing(false);
    assert_eq!(data.len(), unit as usize);

    let flights = cluster.flight_spans();
    assert_eq!(flights.len(), 2, "one flight-recorder entry per traced op");
    // The read: a single tree whose root is the op, with the wire RTT
    // under it and the server's queue/service phases under the RTT.
    let read_spans = flights.last().unwrap();
    let trees = build_trees(read_spans);
    assert_eq!(trees.len(), 1, "all spans of one op share one tree");
    let root = &trees[0];
    assert_eq!(root.span.phase, Phase::Op);
    let mut phases = Vec::new();
    root.walk(&mut |node| phases.push(node.span.phase));
    for want in [Phase::Plan, Phase::Submit, Phase::WireRtt, Phase::SrvQueue, Phase::Service, Phase::Deliver] {
        assert!(phases.contains(&want), "read tree missing {want:?}: {phases:?}");
    }
    let rtt = root.children.iter().find(|c| c.span.phase == Phase::WireRtt).unwrap();
    assert!(
        rtt.children.iter().any(|c| c.span.phase == Phase::SrvQueue)
            && rtt.children.iter().any(|c| c.span.phase == Phase::Service),
        "server phases must hang under the attempt that carried them"
    );
    // The write did parity XOR work.
    let wtrees = build_trees(&flights[0]);
    let mut wphases = Vec::new();
    wtrees[0].walk(&mut |node| wphases.push(node.span.phase));
    assert!(wphases.contains(&Phase::Xor), "whole-group write must record xor: {wphases:?}");

    // On-demand dump round-trips as JSON and holds both trees.
    let dump = cluster.dump_flight_recorder();
    let mut ops = 0;
    walk_dump(&dump, &mut |phase, _| {
        if phase == "op" {
            ops += 1;
        }
    });
    assert_eq!(ops, 2);
    assert_eq!(cluster.last_flight_dump().as_deref(), Some(dump.as_str()));
    cluster.shutdown();
}

/// §5.1 on the live cluster: a traced one-block overwrite that parks
/// on a held parity lock gets its lock wait, queue wait and service
/// back under its round trip to the parity server.
#[test]
fn parked_overwrite_traces_its_lock_wait() {
    use csar_obs::trace::{build_trees, Phase};
    use csar_obs::Gauge;
    let unit = 512u64;
    let cluster = Cluster::spawn(4, cfg());
    let client = cluster.client();
    let f = client.create("locked", Scheme::Raid5, unit).unwrap();
    f.write_at(0, &pattern(3 * unit as usize, 51)).unwrap();
    let meta = f.meta();
    let psrv = meta.layout.parity_server(0);
    let hdr = ReqHeader::new(meta.fh, meta.layout, meta.scheme);
    cluster.set_tracing(true);
    let lock = Request::ParityReadLock { hdr, group: 0, intra: 0, len: unit };
    let parity = client.send_raw(psrv, lock).unwrap().into_payload().unwrap();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| f.write_at(unit, &pattern(unit as usize, 52)).unwrap());
        while cluster.with_server(psrv, |s| s.obs.gauge(Gauge::SrvParkedWaiters)) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Release with the parity the lock read returned: unchanged.
        let unlock = Request::ParityWriteUnlock { hdr, group: 0, intra: 0, payload: parity };
        client.send_raw(psrv, unlock).unwrap().into_done().unwrap();
        writer.join().unwrap();
    });
    cluster.set_tracing(false);

    let flights = cluster.flight_spans();
    assert_eq!(flights.len(), 1, "only the overwrite is traced");
    let trees = build_trees(&flights[0]);
    assert_eq!(trees.len(), 1, "all spans of one op share one tree");
    let has = |node: &csar_obs::trace::TraceNode, phase| node.children.iter().any(|c| c.span.phase == phase);
    let locked = trees[0].children.iter().find(|c| {
        c.span.phase == Phase::WireRtt
            && c.span.aux == psrv as u64
            && [Phase::LockWait, Phase::SrvQueue, Phase::Service].into_iter().all(|p| has(c, p))
    });
    assert!(locked.is_some(), "no wire_rtt to parity server {psrv} holds lock_wait, srv_queue and service");
    assert_scrub_clean(&f);
    cluster.shutdown();
}

#[test]
fn retried_read_traces_both_attempts_as_siblings() {
    use csar_obs::trace::{build_trees, Phase};
    // A held server makes the first read attempt miss its deadline; the
    // retry succeeds after release. The op's trace tree must show both
    // attempts — the timed-out one and the successful one — as siblings
    // under the op root, attributed to the same server.
    let n = 4u32;
    let unit = 512u64;
    let cluster = Cluster::spawn(n, cfg());
    let client = cluster.client();
    let f = client.create("retry", Scheme::Raid5, unit).unwrap();
    f.write_at(0, &pattern(3 * unit as usize, 31)).unwrap();
    let slow = f.meta().layout.home_server(0);

    cluster.set_reply_timeout(Duration::from_millis(100));
    cluster.set_tracing(true);
    let guard = cluster.hold_server(slow);
    std::thread::scope(|scope| {
        let t = scope.spawn(|| f.read_at(0, unit).unwrap());
        std::thread::sleep(Duration::from_millis(250));
        drop(guard);
        assert_eq!(t.join().unwrap().len(), unit as usize);
    });
    cluster.set_tracing(false);

    let flights = cluster.flight_spans();
    let read_spans = flights.last().unwrap();
    let trees = build_trees(read_spans);
    assert_eq!(trees.len(), 1, "both attempts belong to one trace tree");
    let root = &trees[0];
    let timeouts: Vec<_> =
        root.children.iter().filter(|c| c.span.phase == Phase::Timeout).collect();
    let rtts: Vec<_> = root.children.iter().filter(|c| c.span.phase == Phase::WireRtt).collect();
    assert_eq!(timeouts.len(), 1, "first attempt must appear as a timeout span");
    assert_eq!(rtts.len(), 1, "retry must appear as a wire-rtt span");
    assert_eq!(timeouts[0].span.aux, slow as u64);
    assert_eq!(rtts[0].span.aux, slow as u64);
    assert!(
        timeouts[0].span.start_ns < rtts[0].span.start_ns,
        "the abandoned attempt started first"
    );

    // The on-demand dump contains the retried op.
    let dump = cluster.dump_flight_recorder();
    let mut saw_timeout = false;
    walk_dump(&dump, &mut |phase, aux| {
        saw_timeout |= phase == "timeout" && aux == slow as u64;
    });
    assert!(saw_timeout, "dump must contain the abandoned attempt");
    cluster.shutdown();
}

#[test]
fn the_next_op_after_a_timeout_succeeds() {
    // The timed-out request is still answered once the server is
    // released. That late reply must not reach the next op on the same
    // file, which would take it for a reply to a request it never sent.
    let unit = 512u64;
    let cluster = Cluster::spawn(4, cfg());
    cluster.set_transport_config(csar_cluster::TransportConfig {
        reply_timeout: Duration::from_millis(50),
        retries: 0,
        ..Default::default()
    });
    let f = cluster.client().create("late", Scheme::Raid5, unit).unwrap();
    let data = pattern(3 * unit as usize, 43);
    f.write_at(0, &data).unwrap();
    let guard = cluster.hold_server(f.meta().layout.home_server(0));
    assert!(matches!(f.read_at(0, unit), Err(CsarError::Timeout { .. })));
    drop(guard);
    assert_eq!(f.read_at(0, 3 * unit).unwrap(), data);
    cluster.shutdown();
}

#[test]
fn forced_timeout_auto_dumps_flight_recorder_naming_slow_server() {
    // Acceptance: with retries disabled, an op stalled on a held (slow,
    // not down) server dies with CsarError::Timeout — and the flight
    // recorder dumps automatically, its trace tree attributing the stall
    // to that server.
    let n = 4u32;
    let unit = 512u64;
    let cluster = Cluster::spawn(n, cfg());
    cluster.set_transport_config(csar_cluster::TransportConfig {
        window: 8,
        reply_timeout: Duration::from_millis(80),
        retries: 0,
        backoff: 2,
    });
    let client = cluster.client();
    let f = client.create("stalled", Scheme::Raid5, unit).unwrap();
    f.write_at(0, &pattern(3 * unit as usize, 41)).unwrap();
    let slow = f.meta().layout.home_server(0);

    cluster.set_tracing(true);
    assert!(cluster.last_flight_dump().is_none());
    let guard = cluster.hold_server(slow);
    let err = std::thread::scope(|scope| {
        let t = scope.spawn(|| f.read_at(0, unit).unwrap_err());
        let err = t.join().unwrap();
        drop(guard);
        err
    });
    cluster.set_tracing(false);
    match err {
        CsarError::Timeout { server, .. } => assert_eq!(server, slow),
        other => panic!("expected Timeout, got {other:?}"),
    }

    let dump = cluster.last_flight_dump().expect("timeout must auto-dump the flight recorder");
    let doc = csar_store::Json::parse(&dump).unwrap();
    assert_eq!(doc.field("reason").unwrap().as_str(), Some("timeout"));
    assert_eq!(doc.u64_field("server").unwrap(), slow as u64);
    let mut saw_stall = false;
    walk_dump(&dump, &mut |phase, aux| {
        saw_stall |= phase == "timeout" && aux == slow as u64;
    });
    assert!(saw_stall, "dump's trace tree must attribute the stall to server {slow}");
    cluster.shutdown();
}
