//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [fig1|fig3|fig4a|fig4b|fig5|fig6|fig7|fig8|table2|all] [--scale S]
//! figures --bench pipeline|cost [--bench-json PATH]
//! ```
//!
//! Prints each figure as an aligned text table (the series the paper
//! plots). `--scale` shrinks data volumes and caches proportionally for
//! quick runs; shapes are preserved. `--bench NAME` runs one of the
//! machine-readable benches and writes it to `--bench-json PATH`
//! (default `BENCH_<NAME>.json`). Both are exact and deterministic, so
//! their sizes are fixed: `--scale` applies to the figures only.

use csar_bench::figures::{self, FigOpts};
use csar_bench::harness::render_table;
use csar_bench::trends;
use csar_store::Json;
use std::cell::RefCell;

// Collected machine-readable results for --json.
thread_local! {
    static JSON_OUT: RefCell<Vec<(String, Json)>> = const { RefCell::new(Vec::new()) };
}

fn record(key: &str, value: Json) {
    JSON_OUT.with(|m| {
        let mut out = m.borrow_mut();
        match out.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => out.push((key.to_string(), value)),
        }
    });
}

/// `(label, number)` rows as `[[label, n], ...]`, matching the layout
/// serde_json gave Rust tuples.
fn pairs_json<T: Copy + Into<Json>>(rows: &[(String, T)]) -> Json {
    Json::Arr(
        rows.iter().map(|(l, v)| Json::Arr(vec![Json::from(l.as_str()), (*v).into()])).collect(),
    )
}

fn series_json(series: &[csar_bench::Series]) -> Json {
    Json::Arr(
        series
            .iter()
            .map(|s| {
                let points = Json::Arr(
                    s.points
                        .iter()
                        .map(|&(x, y)| Json::Arr(vec![Json::from(x), Json::from(y)]))
                        .collect(),
                );
                Json::obj([("label", Json::from(s.label.as_str())), ("points", points)])
            })
            .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = 1.0f64;
    let mut json_path: Option<String> = None;
    let mut bench: Option<String> = None;
    let mut bench_json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --scale"));
            }
            "--json" => {
                json_path = Some(it.next().cloned().unwrap_or_else(|| usage("missing path for --json")));
            }
            "--bench" => {
                let name = it.next().unwrap_or_else(|| usage("missing name for --bench"));
                if !BENCHES.contains(&name.as_str()) {
                    usage(&format!("unknown bench `{name}` (expected one of {})", BENCHES.join("|")));
                }
                bench = Some(name.clone());
            }
            "--bench-json" => {
                bench_json_path =
                    Some(it.next().cloned().unwrap_or_else(|| usage("missing path for --bench-json")));
            }
            other => which.push(other.to_string()),
        }
    }
    if bench_json_path.is_some() && bench.is_none() {
        usage("--bench-json needs --bench NAME");
    }
    if which.is_empty() && bench.is_none() {
        which.push("all".into());
    }
    let opts = FigOpts { scale };
    let all = which.iter().any(|w| w == "all");
    let wants = |name: &str| all || which.iter().any(|w| w == name);

    if wants("fig1") {
        fig1();
    }
    if wants("fig3") {
        fig3(&opts);
    }
    if wants("fig4a") {
        fig4a(&opts);
    }
    if wants("fig4b") {
        fig4b(&opts);
    }
    if wants("fig5") {
        fig5(&opts);
    }
    if wants("fig6") {
        fig67(&opts, csar_workloads::btio::Class::B, "Figure 6: BTIO Class B");
    }
    if wants("fig7") {
        fig67(&opts, csar_workloads::btio::Class::C, "Figure 7: BTIO Class C");
    }
    if wants("fig8") {
        fig8(&opts);
    }
    if wants("table2") {
        table2(&opts);
    }
    if wants("extensions") || which.iter().any(|w| w.starts_with("ext")) {
        extensions(&opts);
    }
    if let Some(name) = bench {
        let path = bench_json_path.unwrap_or_else(|| format!("BENCH_{name}.json"));
        match name.as_str() {
            "pipeline" => bench_pipeline(&path),
            _ => bench_cost(&path),
        }
    }
    if let Some(path) = json_path {
        let doc = JSON_OUT.with(|m| Json::Obj(m.borrow().clone()));
        let body = Json::obj([("scale", Json::from(scale)), ("results", doc)]).to_pretty();
        std::fs::write(&path, body).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("
wrote machine-readable results to {path}");
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: figures [fig1|fig3|fig4a|fig4b|fig5|fig6|fig7|fig8|table2|extensions|all] [--scale S] [--json PATH]
       figures --bench pipeline|cost [--bench-json PATH]"
    );
    std::process::exit(2);
}

/// The machine-readable benches `--bench` can run.
const BENCHES: [&str; 2] = ["pipeline", "cost"];

/// The PR 2 pipelining ablation: barrier vs completion-driven delivery
/// on the simulator, dumped as machine-readable JSON (default
/// `BENCH_pipeline.json`).
fn bench_pipeline(path: &str) {
    header("Pipelined vs batch-barrier completion delivery");
    let grid = csar_bench::pipeline::compare_all();
    println!(
        "{:>13} {:>8} {:>5} {:>13} {:>13} {:>8} {:>10} {:>9}",
        "case", "scheme", "slow", "barrier ns", "pipelined ns", "speedup", "stall ns", "inflight"
    );
    let cases = grid
        .iter()
        .map(|c| {
            println!(
                "{:>13} {:>8} {:>5} {:>13} {:>13} {:>7.2}x {:>10} {:>9}",
                c.case,
                c.scheme.label(),
                c.slow_servers,
                c.barrier.duration_ns,
                c.pipelined.duration_ns,
                c.speedup(),
                c.barrier.stall_ns,
                c.pipelined.max_in_flight,
            );
            Json::obj([
                ("case", Json::from(c.case)),
                ("scheme", Json::from(c.scheme.label())),
                ("slow_servers", Json::from(c.slow_servers as u64)),
                ("slowdown_ns", Json::from(csar_bench::pipeline::SLOWDOWN_NS)),
                ("barrier_ns", Json::from(c.barrier.duration_ns)),
                ("pipelined_ns", Json::from(c.pipelined.duration_ns)),
                ("speedup", Json::from(c.speedup())),
                ("barrier_stall_ns", Json::from(c.barrier.stall_ns)),
                ("pipelined_stall_ns", Json::from(c.pipelined.stall_ns)),
                ("barrier_max_in_flight", Json::from(c.barrier.max_in_flight)),
                ("pipelined_max_in_flight", Json::from(c.pipelined.max_in_flight)),
                ("requests", Json::from(c.pipelined.requests)),
                ("ttfb_ns", Json::from(c.pipelined.ttfb_ns)),
            ])
        })
        .collect();
    let body = Json::obj([("cases", Json::Arr(cases))]).to_pretty();
    std::fs::write(path, body).unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote pipelining ablation to {path}");
}

/// The deterministic cost ledger (`BENCH_cost.json`): allocation
/// audits of the hot paths and the exact per-case table of requests,
/// bytes, virtual time, counters, allocations and spans.
fn bench_cost(path: &str) {
    header("Cost ledger (exact; 5 servers, 64 KiB unit, real payloads, metrics on)");
    let ledger = csar_bench::cost::ledger(csar_bench::cost::OPS);
    let f = &ledger.fold;
    let (groups, warmup, steady) = (f.groups, f.warmup_allocs, f.steady_allocs);
    println!("parity fold       : {groups} groups, warmup {warmup} allocs, steady {steady} allocs");
    for (name, a) in [
        ("registry record   ", &ledger.registry),
        ("record_trace off  ", &ledger.record_trace_off),
        ("record_trace on   ", &ledger.record_trace_on),
    ] {
        println!("{name}: {} ops, warmup {} allocs, steady {} allocs", a.ops, a.warmup_allocs, a.steady_allocs);
    }
    println!(
        "\n{:>8} {:>18} {:>5} {:>9} {:>12} {:>9} {:>9} {:>7}",
        "scheme", "shape", "ops", "requests", "virtual ns", "allocs", "traced", "spans"
    );
    for c in &ledger.cases {
        println!(
            "{:>8} {:>18} {:>5} {:>9} {:>12} {:>9} {:>9} {:>7}",
            c.scheme.label(),
            c.shape.label(),
            c.stats.ops,
            c.stats.requests,
            c.stats.duration_ns,
            c.allocs,
            c.allocs_traced,
            c.spans,
        );
    }
    std::fs::write(path, ledger.to_json().to_pretty()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote cost ledger to {path}");
}

fn header(title: &str) {
    println!("\n======================================================================");
    println!("{title}");
    println!("======================================================================");
}

fn fig1() {
    header("Figure 1: time to fill a disk to capacity over the years");
    println!("{:>6} {:>22} {:>14} {:>12} {:>14}", "year", "drive", "capacity MB", "MB/s", "fill minutes");
    for g in trends::GENERATIONS {
        let minutes = g.capacity_mb / g.bandwidth_mb_s / 60.0;
        println!(
            "{:>6} {:>22} {:>14.0} {:>12.1} {:>14.1}",
            g.year, g.model, g.capacity_mb, g.bandwidth_mb_s, minutes
        );
    }
    let (cap, bw) = trends::fitted_rates();
    println!("\nfitted growth: capacity {cap:.2}x/yr, bandwidth {bw:.2}x/yr");
    println!("(paper: capacity ~1.6x/yr, data-path bandwidths ~1.2-1.25x/yr)");
}

fn fig3(opts: &FigOpts) {
    header("Figure 3: parity-lock overhead (5 clients, one stripe, 6 servers)");
    let rows = figures::fig3(opts);
    record("fig3", pairs_json(&rows));
    for (label, mbps) in &rows {
        println!("{label:>12}: {mbps:>8.1} MB/s");
    }
    let nolock = rows.iter().find(|(l, _)| l == "R5-NOLOCK").map(|(_, v)| *v).unwrap_or(0.0);
    let locked = rows.iter().find(|(l, _)| l == "RAID5").map(|(_, v)| *v).unwrap_or(0.0);
    if nolock > 0.0 {
        println!(
            "\nlocking overhead: {:.0}% (paper: ~20%)",
            (1.0 - locked / nolock) * 100.0
        );
    }
}

fn fig4a(opts: &FigOpts) {
    header("Figure 4(a): full-stripe write bandwidth vs I/O servers");
    let series = figures::fig4a(opts);
    record("fig4a", series_json(&series));
    print!("{}", render_table("servers", "MB/s", &series));
    let r5 = figures::series(&series, "RAID5").last();
    let npc = figures::series(&series, "RAID5-npc").last();
    let r0 = figures::series(&series, "RAID0").last();
    println!(
        "\nat 7 servers: RAID5/RAID0 = {:.2} (paper: 0.73); parity-compute cost = {:.0}% (paper: ~8%)",
        r5 / r0,
        (1.0 - r5 / npc) * 100.0
    );
}

fn fig4b(opts: &FigOpts) {
    header("Figure 4(b): one-block write bandwidth vs I/O servers");
    let series = figures::fig4b(opts);
    record("fig4b", series_json(&series));
    print!("{}", render_table("servers", "MB/s", &series));
}

fn fig5(opts: &FigOpts) {
    header("Figure 5: ROMIO perf (8 servers)");
    let (read, write) = figures::fig5(opts);
    record("fig5_read", series_json(&read));
    record("fig5_write", series_json(&write));
    println!("(a) read bandwidth:");
    print!("{}", render_table("clients", "MB/s", &read));
    println!("(b) write bandwidth (after flush):");
    print!("{}", render_table("clients", "MB/s", &write));
}

fn fig67(opts: &FigOpts, class: csar_workloads::btio::Class, title: &str) {
    header(title);
    let fig = figures::btio_figure(class, opts);
    let key = match class {
        csar_workloads::btio::Class::B => "fig6",
        csar_workloads::btio::Class::C => "fig7",
        csar_workloads::btio::Class::A => "btio_a",
    };
    record(&format!("{key}_initial"), series_json(&fig.initial));
    record(&format!("{key}_overwrite"), series_json(&fig.overwrite));
    println!("(a) initial write:");
    print!("{}", render_table("procs", "MB/s", &fig.initial));
    println!("(b) overwrite (file evicted from server caches):");
    print!("{}", render_table("procs", "MB/s", &fig.overwrite));
}

fn fig8(opts: &FigOpts) {
    header("Figure 8: application output time normalised to RAID0");
    let rows = figures::fig8(opts);
    record(
        "fig8",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("app", Json::from(r.app.as_str())),
                        ("normalized", pairs_json(&r.normalized)),
                    ])
                })
                .collect(),
        ),
    );
    print!("{:>16}", "application");
    for (label, _) in &rows[0].normalized {
        print!(" {label:>10}");
    }
    println!();
    for row in &rows {
        print!("{:>16}", row.app);
        for (_, t) in &row.normalized {
            print!(" {t:>10.2}");
        }
        println!();
    }
}

fn extensions(opts: &FigOpts) {
    use csar_bench::extensions;
    header("Extension 1: degraded-read bandwidth (one failed server, 6 servers)");
    println!("{:>10} {:>12} {:>12} {:>8}", "scheme", "healthy", "degraded", "ratio");
    for r in extensions::degraded_reads(opts) {
        println!(
            "{:>10} {:>9.1} MB/s {:>9.1} MB/s {:>7.2}x",
            r.scheme,
            r.healthy_mbps,
            r.degraded_mbps,
            r.healthy_mbps / r.degraded_mbps
        );
    }

    header("Extension 2: Hybrid stripe-unit sweep (FLASH-like mix)");
    println!("{:>10} {:>12} {:>12} {:>18}", "unit", "write MB/s", "expansion", "overflow fraction");
    for r in extensions::stripe_unit_sweep(opts) {
        println!(
            "{:>8}KB {:>12.1} {:>11.2}x {:>17.2}",
            r.unit >> 10,
            r.write_mbps,
            r.expansion,
            r.overflow_fraction
        );
    }

    header("Extension 3: write-size sweep — the 'best of both worlds' claim");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>22}",
        "size", "RAID0", "RAID1", "RAID5", "Hybrid", "Hybrid/max(R1,R5)"
    );
    for r in extensions::write_size_sweep(opts) {
        let best = r.of("RAID1").max(r.of("RAID5"));
        println!(
            "{:>8}KB {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>21.2}",
            r.write_size >> 10,
            r.of("RAID0"),
            r.of("RAID1"),
            r.of("RAID5"),
            r.of("Hybrid"),
            r.of("Hybrid") / best
        );
    }

    header("Extension 4: the §5.2 ablation (overwrite/initial bandwidth ratio, BTIO-B, 9 procs)");
    println!("{:>10} {:>12} {:>12} {:>12}", "scheme", "buffered", "unbuffered", "padded");
    for r in extensions::write_buffering_ablation(opts) {
        println!(
            "{:>10} {:>12.2} {:>12.2} {:>12.2}",
            r.scheme, r.buffered, r.unbuffered, r.padded
        );
    }

    header("Extension 5: rebuild cost (bytes restored onto a replacement server)");
    println!("{:>10} {:>12} {:>16}", "scheme", "file MB", "restored MB");
    for r in extensions::rebuild_cost(opts) {
        println!("{:>10} {:>12} {:>16.1}", r.scheme, r.file_bytes >> 20, r.restored_bytes as f64 / (1024.0 * 1024.0));
    }
}

fn table2(opts: &FigOpts) {
    header("Table 2: storage requirement (6 I/O servers)");
    let rows = figures::table2(opts);
    record(
        "table2",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("benchmark", Json::from(r.benchmark.as_str())),
                        ("totals", pairs_json(&r.totals)),
                    ])
                })
                .collect(),
        ),
    );
    print!("{:>22}", "benchmark");
    for (label, _) in &rows[0].totals {
        print!(" {label:>10}");
    }
    println!();
    for row in &rows {
        print!("{:>22}", row.benchmark);
        for (_, bytes) in &row.totals {
            print!(" {:>7} MB", bytes >> 20);
        }
        println!();
    }
}
