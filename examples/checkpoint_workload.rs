//! BTIO-style parallel checkpointing on the live cluster: several writer
//! threads dump collective solution snapshots into one shared file,
//! under each redundancy scheme, and the parity stays consistent.
//!
//! This drives the *functional* system (real bytes, real threads); the
//! paper's bandwidth figures come from the simulator (`figures` binary),
//! which runs the same engines under a performance model.
//!
//! ```text
//! cargo run --release --example checkpoint_workload
//! ```

use csar::cluster::Cluster;
use csar::core::proto::Scheme;
use csar::store::SplitMix64;
use std::time::Instant;

const PROCS: usize = 4;
const DUMPS: u64 = 8;
const DUMP_BYTES: u64 = 4 << 20; // per collective dump
const UNIT: u64 = 16 * 1024;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn main() {
    for scheme in [Scheme::Raid0, Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid] {
        let cluster = Cluster::spawn(6, Default::default());
        let client = cluster.client();
        let _file = client.create("checkpoint", scheme, UNIT).unwrap();

        let started = Instant::now();
        // One barrier-delimited round per dump: each "rank" writes its
        // contiguous slice (unaligned chunks, like ROMIO presents them).
        for d in 0..DUMPS {
            std::thread::scope(|scope| {
                for p in 0..PROCS {
                    let f = cluster.client().open("checkpoint").unwrap();
                    scope.spawn(move || {
                        let chunk = DUMP_BYTES / PROCS as u64;
                        let off = d * DUMP_BYTES + p as u64 * chunk;
                        let data = pattern(chunk as usize, d * 100 + p as u64);
                        f.write_at(off, &data).unwrap();
                    });
                }
            });
        }
        let elapsed = started.elapsed();

        // Verify contents.
        let f = client.open("checkpoint").unwrap();
        for d in 0..DUMPS {
            for p in 0..PROCS {
                let chunk = DUMP_BYTES / PROCS as u64;
                let off = d * DUMP_BYTES + p as u64 * chunk;
                let want = pattern(chunk as usize, d * 100 + p as u64);
                assert_eq!(f.read_at(off, chunk).unwrap(), want);
            }
        }

        // Verify every parity group against the in-place data.
        let scrub = f.scrub().unwrap();
        assert!(scrub.is_clean(), "{scrub:?}");

        let report = f.storage_report().unwrap();
        let mb = (DUMPS * DUMP_BYTES) as f64 / (1024.0 * 1024.0);
        println!(
            "{:>8}: {mb:>5.0} MB checkpointed in {elapsed:>8.1?}, storage expansion {:.2}x, parity verified",
            scheme.label(),
            report.expansion()
        );
        cluster.shutdown();
    }
}
