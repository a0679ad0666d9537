//! Cross-crate integration: the live threaded cluster and the simulator
//! must agree wherever their domains overlap (storage accounting,
//! overflow behaviour), and the workload generators must drive both.

use csar::cluster::Cluster;
use csar::core::proto::Scheme;
use csar::sim::{HwProfile, Op, SimCluster};
use csar::store::Payload;
use csar::workloads::{flash, hartree_fock, microbench, Workload};

/// Replay a workload's writes on the live cluster with phantom payloads.
fn replay_live(cluster: &Cluster, name: &str, scheme: Scheme, unit: u64, w: &Workload) -> csar::store::StreamUsage {
    let client = cluster.client();
    let files: Vec<csar::cluster::File> = (0..w.files())
        .map(|i| client.create(&format!("{name}-{i}"), scheme, unit).unwrap())
        .collect();
    for phase in &w.phases {
        for (_, ops) in phase {
            for op in ops {
                if let Op::Write { file, off, len } = op {
                    files[*file].write_payload(*off, Payload::Phantom(*len)).unwrap();
                }
            }
        }
    }
    let mut total = csar::store::StreamUsage::default();
    for f in &files {
        total.merge(&f.storage_report().unwrap().aggregate());
    }
    total
}

/// Replay the same workload in the simulator.
fn replay_sim(scheme: Scheme, servers: u32, unit: u64, w: &Workload) -> csar::store::StreamUsage {
    let mut sim = SimCluster::new(HwProfile::test_profile(), servers, w.clients().max(1));
    for f in 0..w.files() {
        let idx = sim.create_file(&format!("x{f}"), scheme, unit);
        assert_eq!(idx, f);
    }
    for phase in &w.phases {
        sim.run_phase(phase.clone());
    }
    let mut total = csar::store::StreamUsage::default();
    for f in 0..w.files() {
        total.merge(&sim.storage_report(f).aggregate());
    }
    total
}

#[test]
fn live_and_simulated_storage_reports_agree() {
    // The same engines run under both drivers, so byte-exact agreement
    // is required — this is what lets Table 2 come from the simulator.
    let n = 6u32;
    for scheme in Scheme::MAIN {
        for (name, unit, w) in [
            ("flash", 16 * 1024u64, flash::workload(0, 4, 3)),
            ("hf", 64 * 1024, hartree_fock::workload(0)),
        ] {
            let cluster = Cluster::spawn(n, Default::default());
            let live = replay_live(&cluster, &format!("{name}-{:?}", scheme), scheme, unit, &w);
            cluster.shutdown();
            let simulated = replay_sim(scheme, n, unit, &w);
            assert_eq!(live, simulated, "{name} under {scheme:?}");
        }
    }
}

#[test]
fn microbenchmark_generators_drive_the_live_cluster() {
    let cluster = Cluster::spawn(4, Default::default());
    let client = cluster.client();
    let unit = 8 * 1024u64;
    let (create, writes) = microbench::small_writes(0, unit, 16);
    let file = client.create("micro", Scheme::Hybrid, unit).unwrap();
    for w in [&create, &writes] {
        for phase in &w.phases {
            for (_, ops) in phase {
                for op in ops {
                    if let Op::Write { off, len, .. } = op {
                        // Real bytes this time: position-dependent pattern.
                        let data: Vec<u8> =
                            (*off..*off + *len).map(|i| (i % 251) as u8).collect();
                        file.write_at(*off, &data).unwrap();
                    }
                }
            }
        }
    }
    // Every byte reads back as the last pattern written.
    let total = create.bytes_written();
    let got = file.read_at(0, total).unwrap();
    for (i, b) in got.iter().enumerate() {
        assert_eq!(*b, (i % 251) as u8, "byte {i}");
    }
    cluster.shutdown();
}

#[test]
fn degraded_reads_survive_each_failed_server_after_mixed_workload() {
    for scheme in [Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid] {
        let cluster = Cluster::spawn(5, Default::default());
        let client = cluster.client();
        let unit = 4 * 1024u64;
        let file = client.create("mixed", scheme, unit).unwrap();
        // Mixed large + small writes (hybrid exercises both paths).
        let mut reference = vec![0u8; 200_000];
        let stamp = |file: &csar::cluster::File,
                         reference: &mut Vec<u8>,
                         off: usize,
                         len: usize,
                         seed: u8| {
            let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(seed).wrapping_add(seed)).collect();
            file.write_at(off as u64, &data).unwrap();
            reference[off..off + len].copy_from_slice(&data);
        };
        stamp(&file, &mut reference, 0, 200_000, 3);
        stamp(&file, &mut reference, 777, 5000, 7);
        stamp(&file, &mut reference, 150_001, 9999, 11);
        stamp(&file, &mut reference, 60_000, 40_000, 13);

        for kill in 0..5u32 {
            cluster.fail_server(kill);
            let got = file.read_at(0, reference.len() as u64).unwrap();
            assert_eq!(got, reference, "{scheme:?}, server {kill} down");
            cluster.restore_server(kill);
        }
        cluster.shutdown();
    }
}

#[test]
fn rebuild_preserves_every_stream_for_hybrid() {
    let cluster = Cluster::spawn(4, Default::default());
    let client = cluster.client();
    let unit = 4 * 1024u64;
    let file = client.create("full", Scheme::Hybrid, unit).unwrap();
    let body: Vec<u8> = (0..100_000u64).map(|i| (i % 241) as u8).collect();
    file.write_at(0, &body).unwrap();
    file.write_at(123, &[0xEE; 777]).unwrap(); // overflowed partial
    let mut want = body.clone();
    want[123..900].copy_from_slice(&[0xEE; 777]);

    cluster.fail_server(1);
    cluster.rebuild_server(1).unwrap();

    // Contents correct...
    assert_eq!(file.read_at(0, want.len() as u64).unwrap(), want);
    // ...and redundancy is fully restored: any OTHER single failure is
    // still survivable, including ones that need the rebuilt server's
    // mirrors/parity/overflow-mirror copies.
    for kill in [0u32, 2, 3] {
        cluster.fail_server(kill);
        assert_eq!(
            file.read_at(0, want.len() as u64).unwrap(),
            want,
            "failure of {kill} after rebuilding 1"
        );
        cluster.restore_server(kill);
    }
    cluster.shutdown();
}

#[test]
fn compaction_then_degraded_read_still_correct() {
    // The §6.7 cleaner must not break recoverability: after compaction
    // the overflow mirror still covers the live extents.
    let cluster = Cluster::spawn(4, Default::default());
    let client = cluster.client();
    let file = client.create("cleaned", Scheme::Hybrid, 4096).unwrap();
    let body = vec![5u8; 50_000];
    file.write_at(0, &body).unwrap();
    // Fragment the overflow log with repeated small writes.
    for i in 0..20u64 {
        file.write_at(100 + i * 7, &[i as u8; 64]).unwrap();
    }
    let mut want = body.clone();
    for i in 0..20u64 {
        let off = (100 + i * 7) as usize;
        want[off..off + 64].copy_from_slice(&[i as u8; 64]);
    }
    file.compact_overflow().unwrap();
    assert_eq!(file.read_at(0, want.len() as u64).unwrap(), want);
    cluster.fail_server(0);
    assert_eq!(file.read_at(0, want.len() as u64).unwrap(), want, "degraded after compaction");
    cluster.shutdown();
}

/// One op's trace tree: its sorted `(phase, parent phase)` edges (the
/// root's parent is `"-"`) and the root's request count.
fn tree_shape(spans: &[csar_obs::trace::TraceSpan]) -> (Vec<(&'static str, &'static str)>, u64) {
    fn walk(n: &csar_obs::trace::TraceNode, parent: &'static str, out: &mut Vec<(&'static str, &'static str)>) {
        out.push((n.span.phase.name(), parent));
        n.children.iter().for_each(|c| walk(c, n.span.phase.name(), out));
    }
    let trees = csar_obs::trace::build_trees(spans);
    assert_eq!(trees.len(), 1, "one op, one tree: {trees:#?}");
    let mut edges = Vec::new();
    walk(&trees[0], "-", &mut edges);
    edges.sort_unstable();
    (edges, trees[0].span.aux)
}

#[test]
fn sim_and_live_emit_the_same_trace_trees() {
    // Both stacks run the same completion engine, so one script must
    // give each op the same span tree on each: same phases, same
    // parentage, same request count on the root.
    let (n, unit) = (5u32, 16 * 1024u64);
    let group = (n as u64 - 1) * unit;
    // File 0 is RAID5, file 1 Hybrid: a whole-group write, a one-block
    // RMW overwrite, a Hybrid partial write, a plain read.
    let script = [
        Op::Write { file: 0, off: 0, len: group },
        Op::Write { file: 0, off: unit, len: unit },
        Op::Write { file: 1, off: unit, len: unit / 2 },
        Op::Read { file: 0, off: 0, len: group },
    ];
    let schemes = [Scheme::Raid5, Scheme::Hybrid];

    let mut sim = SimCluster::new(HwProfile::test_profile(), n, 1);
    assert_eq!(schemes.map(|s| sim.create_file(s.label(), s, unit)), [0, 1]);
    sim.set_tracing(true);
    let mut sim_shapes = Vec::new();
    for op in script {
        sim.run_phase(vec![(0, vec![op])]);
        sim_shapes.push(tree_shape(&sim.take_traces()));
    }

    let cluster = Cluster::spawn(n, Default::default());
    let client = cluster.client();
    let files = schemes.map(|s| client.create(s.label(), s, unit).unwrap());
    cluster.set_tracing(true);
    for op in script {
        match op {
            Op::Write { file, off, len } => files[file].write_at(off, &vec![7u8; len as usize]).map(drop),
            Op::Read { file, off, len } => files[file].read_at(off, len).map(drop),
            Op::Scrub { .. } => unreachable!("the script scrubs nothing"),
        }
        .unwrap();
    }
    let live_shapes: Vec<_> = cluster.flight_spans().iter().map(|s| tree_shape(s)).collect();
    cluster.shutdown();

    assert_eq!(live_shapes.len(), script.len());
    for (i, (live, sim)) in live_shapes.iter().zip(&sim_shapes).enumerate() {
        assert_eq!(live, sim, "op {i} {:?}: live vs sim trace shape", script[i]);
    }
}
