//! Export a causal trace as Chrome `trace_event` JSON (DESIGN.md §15).
//!
//! ```text
//! trace [out.json] [--live] [--scale S]
//! ```
//!
//! Runs a traced workload — by default a deterministic simulator run of
//! the cost ledger's RAID5 full-stripe write and Hybrid 4 KiB overwrite
//! shapes, with `--live` a threaded in-process cluster — and writes the
//! recorded spans as a Chrome trace-event document loadable in
//! `chrome://tracing` or Perfetto.
//!
//! Before writing, the spans are clamped into their parents (a no-op on
//! the simulator's virtual clock) and the causal nesting invariant is
//! validated; after writing, the file is read back through
//! [`csar_bench::chrome_trace::parse_chrome_json`] and compared
//! span-for-span, so every export this tool produces is known to
//! round-trip through its own parser. Any failure exits nonzero.

use csar_bench::chrome_trace::{clamp_into_parents, parse_chrome_json, to_chrome_json, validate_nesting};
use csar_obs::trace::TraceSpan;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: trace [out.json] [--live] [--scale S]");
    std::process::exit(2);
}

/// Spans from a traced run of a live threaded cluster: a whole-group
/// RAID5 write, a Hybrid partial write, and a read, pulled from the
/// cluster's flight recorder.
fn live_spans() -> Vec<TraceSpan> {
    use csar_core::proto::Scheme;
    use csar_core::server::ServerConfig;

    let unit = 64 * 1024u64;
    let cluster = csar_cluster::Cluster::spawn(5, ServerConfig { fs_block: 512, ..ServerConfig::default() });
    cluster.set_tracing(true);
    let client = cluster.client();
    let f = client.create("whole", Scheme::Raid5, unit).expect("create");
    f.write_at(0, &vec![0xA5u8; 4 * unit as usize]).expect("whole-group write");
    let g = client.create("partial", Scheme::Hybrid, unit).expect("create");
    g.write_at(unit / 2, &vec![0x5Au8; unit as usize / 4]).expect("partial write");
    assert_eq!(f.read_at(0, unit).expect("read").len(), unit as usize);
    cluster.set_tracing(false);
    let spans: Vec<TraceSpan> = cluster.flight_spans().into_iter().flatten().collect();
    cluster.shutdown();
    spans
}

fn main() {
    let mut out = "chrome_trace.json".to_string();
    let mut live = false;
    let mut scale = 0.25f64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--live" => live = true,
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --scale"));
            }
            p if !p.starts_with('-') => out = p.to_string(),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let raw = if live { live_spans() } else { csar_bench::cost::sample_traced_spans(scale) };
    if raw.is_empty() {
        eprintln!("error: traced run recorded no spans");
        std::process::exit(1);
    }
    let (spans, clamped) = clamp_into_parents(&raw);
    let report = validate_nesting(&spans).unwrap_or_else(|e| {
        eprintln!("error: causal nesting violated: {e}");
        std::process::exit(1);
    });
    let body = to_chrome_json(&spans).to_pretty();
    std::fs::write(&out, &body).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    });
    let back = std::fs::read_to_string(&out)
        .ok()
        .and_then(|b| parse_chrome_json(&b).ok())
        .unwrap_or_else(|| {
            eprintln!("error: {out} does not parse back");
            std::process::exit(1);
        });
    if back != spans {
        eprintln!("error: round-trip through {out} altered the spans");
        std::process::exit(1);
    }
    println!(
        "exported {} spans ({} trees, max depth {}) from a {} run to {out}",
        report.spans,
        report.trees,
        report.max_depth,
        if live { "live cluster" } else { "simulator" },
    );
    println!("nesting: ok ({clamped} spans clamped); round-trip: ok ({} spans)", back.len());
}
