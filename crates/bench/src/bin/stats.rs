//! `stats` — run a small mixed workload on a threaded cluster, scrape
//! every node's metrics registry through the `GetStats` protocol
//! request, and report the merged cluster-wide snapshot.
//!
//! ```text
//! stats [servers] [--json-out PATH] [--table]
//! ```
//!
//! By default the snapshot is printed as pretty JSON on stdout.
//! `--table` prints a human-readable table instead (counters, gauges
//! and histogram summaries); `--json-out PATH` additionally writes the
//! JSON document to `PATH` so scripts (see `scripts/tier1.sh`) can
//! assert on a file regardless of the display mode.
//!
//! Exits nonzero if the snapshot fails to round-trip through its JSON
//! encoding or the engine-side balance invariant
//! (`eng_issued == eng_delivered + eng_retried_abandoned +
//! eng_timeouts + eng_abandoned`) does not hold — which makes the binary
//! usable as a live-cluster metrics smoke test.

use csar_cluster::Cluster;
use csar_core::proto::Scheme;
use csar_core::server::ServerConfig;
use csar_obs::Snapshot;
use csar_store::{FromJson, Json, ToJson};

/// Render the snapshot as aligned name/value tables.
fn render_table(snap: &Snapshot) -> String {
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };
    push(&mut out, format!("{:<28} {:>14}", "counter", "value"));
    for (name, v) in &snap.counters {
        push(&mut out, format!("{name:<28} {v:>14}"));
    }
    if !snap.gauges.is_empty() {
        push(&mut out, format!("\n{:<28} {:>14}", "gauge", "level"));
        for (name, v) in &snap.gauges {
            push(&mut out, format!("{name:<28} {v:>14}"));
        }
    }
    if !snap.hists.is_empty() {
        push(
            &mut out,
            format!("\n{:<28} {:>10} {:>14} {:>14}", "histogram", "count", "mean", "max-bucket"),
        );
        for h in &snap.hists {
            push(
                &mut out,
                format!(
                    "{:<28} {:>10} {:>14.1} {:>14}",
                    h.name,
                    h.count,
                    h.mean(),
                    h.max_bucket_bound()
                ),
            );
        }
    }
    push(&mut out, format!("\ntrace spans: {}", snap.traces.len()));
    out
}

fn main() {
    let mut servers: u32 = 6;
    let mut json_out: Option<String> = None;
    let mut table = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json-out" => {
                json_out =
                    Some(it.next().cloned().unwrap_or_else(|| usage("missing path for --json-out")));
            }
            "--table" => table = true,
            p if !p.starts_with('-') => {
                servers = p.parse().unwrap_or_else(|_| usage(&format!("bad server count {p:?}")));
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let cluster = Cluster::spawn(servers, ServerConfig::default());
    cluster.set_metrics_enabled(true);
    let client = cluster.client();

    // A workload that touches every metric family: whole-group writes
    // (parity fold), a partial Hybrid write (overflow log), a read
    // (overflow overlay), a cleaner pass (§6.7 rewrite, including the
    // tail-clipped group) and a scrub.
    let unit = 64 * 1024u64;
    let f = client.create("stats-demo", Scheme::Hybrid, unit).expect("create file");
    let group = f.meta().layout.group_width_bytes();
    let block = vec![0xC5u8; group as usize];
    for i in 0..4u64 {
        f.write_at(i * group, &block).expect("whole-group write");
    }
    f.write_at(4 * group, &block[..1024]).expect("partial tail write");
    f.read_at(0, group).expect("read");
    cluster.clean_pass().expect("clean pass");
    cluster.scrub().expect("scrub");

    let snap = cluster.metrics_snapshot().expect("metrics scrape");
    let body = snap.to_json().to_pretty();
    if table {
        print!("{}", render_table(&snap));
    } else {
        println!("{body}");
    }
    if let Some(path) = &json_out {
        std::fs::write(path, &body).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("wrote snapshot JSON to {path}");
    }

    // Self-checks: the JSON document must parse back to the same
    // snapshot, and the engine balance invariant must hold.
    let parsed = Json::parse(&body).unwrap_or_else(|e| die(&format!("snapshot JSON does not parse: {e}")));
    let back = Snapshot::from_json(&parsed)
        .unwrap_or_else(|e| die(&format!("snapshot JSON does not decode: {e}")));
    if back != snap {
        die("snapshot changed across a JSON round-trip");
    }
    if !snap.engine_balanced() {
        die(&format!(
            "engine balance violated: issued {} != delivered {} + retried {} + timeouts {} + abandoned {}",
            snap.counter("eng_issued"),
            snap.counter("eng_delivered"),
            snap.counter("eng_retried_abandoned"),
            snap.counter("eng_timeouts"),
            snap.counter("eng_abandoned"),
        ));
    }
    eprintln!("ok: snapshot round-trips and the engine balance invariant holds");
    cluster.shutdown();
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: stats [servers] [--json-out PATH] [--table]");
    std::process::exit(2);
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
