//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [fig1|fig3|fig4a|fig4b|fig5|fig6|fig7|fig8|table2|all] [--scale S]
//! figures --bench pipeline|datapath|obs|trace [--bench-json PATH] [--scale S]
//! ```
//!
//! Prints each figure as an aligned text table (the series the paper
//! plots). `--scale` shrinks data volumes and caches proportionally for
//! quick runs; shapes are preserved. `--bench NAME` runs one of the
//! machine-readable ablations and writes it to `--bench-json PATH`
//! (default `BENCH_<NAME>.json`).

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
            "datapath" => bench_datapath(&path, scale),
            "obs" => bench_obs(&path, scale),
            _ => bench_trace(&path, scale),
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
       figures --bench pipeline|datapath|obs|trace [--bench-json PATH] [--scale S]"
    );
    std::process::exit(2);
}

/// The machine-readable ablations `--bench` can run.
const BENCHES: [&str; 4] = ["pipeline", "datapath", "obs", "trace"];

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

/// The zero-allocation datapath bench: `xor_into` GB/s, allocations
/// per whole-group parity computation, and in-place-fold wall-clock on
/// the simulator, dumped as machine-readable JSON
/// (`BENCH_datapath.json`).
fn bench_datapath(path: &str, scale: f64) {
    use csar_bench::datapath;

    header("XOR kernel (1 MiB blocks, this host)");
    let passes = ((64.0 * scale).ceil() as usize).max(4);
    let xor = datapath::xor_bandwidth(1 << 20, passes);
    println!("{:>10} {:>12} {:>10}", "kernel", "block", "GB/s");
    println!("{:>10} {:>12} {:>10.2}", "xor_into", xor.block, xor.gbps);

    header("Heap allocations per whole-group parity computation");
    let audit = datapath::whole_group_alloc_audit(5, 64 * 1024, 256);
    println!(
        "width {} x {} KiB, {} groups: warmup {} allocs, steady {} allocs ({:.4}/group)",
        audit.width,
        audit.unit >> 10,
        audit.groups,
        audit.warmup_allocs,
        audit.steady_allocs,
        audit.steady_per_group()
    );

    header("In-place parity fold (sim wall-clock, real payloads)");
    let grid = datapath::inplace_all(scale);
    println!("{:>8} {:>14} {:>12}", "scheme", "in-place ns", "inpl MB/s");
    let cases: Vec<Json> = grid
        .iter()
        .map(|c| {
            println!(
                "{:>8} {:>14} {:>12.1}",
                c.scheme.label(),
                c.inplace.wall_ns,
                c.inplace.wall_write_mbps(),
            );
            Json::obj([
                ("case", Json::from(c.case)),
                ("scheme", Json::from(c.scheme.label())),
                ("inplace_wall_ns", Json::from(c.inplace.wall_ns)),
                ("inplace_wall_mbps", Json::from(c.inplace.wall_write_mbps())),
                ("bytes_written", Json::from(c.inplace.virt.bytes_written)),
                ("virtual_ns", Json::from(c.inplace.virt.duration_ns)),
            ])
        })
        .collect();
    let body = Json::obj([
        (
            "kernels",
            Json::Arr(vec![Json::obj([
                ("kernel", Json::from("xor_into")),
                ("block", Json::from(xor.block as u64)),
                ("gbps", Json::from(xor.gbps)),
            ])]),
        ),
        (
            "alloc_audit",
            Json::obj([
                ("width", Json::from(audit.width as u64)),
                ("unit", Json::from(audit.unit as u64)),
                ("groups", Json::from(audit.groups)),
                ("warmup_allocs", Json::from(audit.warmup_allocs)),
                ("steady_allocs", Json::from(audit.steady_allocs)),
            ]),
        ),
        ("cases", Json::Arr(cases)),
    ])
    .to_pretty();
    std::fs::write(path, body).unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote datapath ablation to {path}");
}

/// The observability ablation: metrics-on vs metrics-off wall-clock on
/// the datapath bench's RAID5 whole-group write shape, plus allocation
/// audits of the recording hot path and the parity fold with the global
/// registry enabled, dumped as machine-readable JSON (`BENCH_obs.json`).
fn bench_obs(path: &str, scale: f64) {
    use csar_bench::{datapath, obs};
    use csar_store::ToJson;

    header("Metric recording hot path: heap allocations per recorded op");
    let reg_audit = obs::registry_alloc_audit(4096);
    println!(
        "{} recorded ops: warmup {} allocs, steady {} allocs",
        reg_audit.ops, reg_audit.warmup_allocs, reg_audit.steady_allocs
    );

    header("Whole-group parity fold, global registry enabled");
    csar_obs::global().set_enabled(true);
    let audit = datapath::whole_group_alloc_audit(5, 64 * 1024, 256);
    csar_obs::global().set_enabled(false);
    println!(
        "width {} x {} KiB, {} groups: warmup {} allocs, steady {} allocs",
        audit.width,
        audit.unit >> 10,
        audit.groups,
        audit.warmup_allocs,
        audit.steady_allocs
    );

    header("Metrics-on vs metrics-off (sim wall-clock, real payloads)");
    let grid = obs::compare_all(scale);
    println!(
        "{:>8} {:>14} {:>14} {:>12} {:>12} {:>9}",
        "scheme", "off ns", "on ns", "off MB/s", "on MB/s", "overhead"
    );
    let cases: Vec<Json> = grid
        .iter()
        .map(|c| {
            println!(
                "{:>8} {:>14} {:>14} {:>12.1} {:>12.1} {:>8.2}%",
                c.scheme.label(),
                c.off.wall_ns,
                c.on.wall_ns,
                c.off.wall_write_mbps(),
                c.on.wall_write_mbps(),
                c.overhead_pct(),
            );
            Json::obj([
                ("case", Json::from(c.case)),
                ("scheme", Json::from(c.scheme.label())),
                ("off_wall_ns", Json::from(c.off.wall_ns)),
                ("on_wall_ns", Json::from(c.on.wall_ns)),
                ("off_wall_mbps", Json::from(c.off.wall_write_mbps())),
                ("on_wall_mbps", Json::from(c.on.wall_write_mbps())),
                ("bytes_written", Json::from(c.on.virt.bytes_written)),
                ("virtual_ns", Json::from(c.on.virt.duration_ns)),
                ("overhead_pct", Json::from(c.overhead_pct())),
                (
                    "round_overheads_pct",
                    Json::Arr(c.round_overheads_pct.iter().map(|&r| Json::from(r)).collect()),
                ),
                ("snapshot", c.snapshot.to_json()),
            ])
        })
        .collect();
    let body = Json::obj([
        (
            "registry_alloc_audit",
            Json::obj([
                ("ops", Json::from(reg_audit.ops)),
                ("warmup_allocs", Json::from(reg_audit.warmup_allocs)),
                ("steady_allocs", Json::from(reg_audit.steady_allocs)),
            ]),
        ),
        (
            "alloc_audit",
            Json::obj([
                ("width", Json::from(audit.width as u64)),
                ("unit", Json::from(audit.unit as u64)),
                ("groups", Json::from(audit.groups)),
                ("warmup_allocs", Json::from(audit.warmup_allocs)),
                ("steady_allocs", Json::from(audit.steady_allocs)),
            ]),
        ),
        ("cases", Json::Arr(cases)),
    ])
    .to_pretty();
    std::fs::write(path, body).unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote observability ablation to {path}");
}

/// The causal-tracing ablation (`BENCH_trace.json`, DESIGN.md §15):
/// tracing-on vs tracing-off wall-clock on the RAID5 whole-group and
/// Hybrid partial-write paths (metrics on on both sides, so the off
/// baseline is the PR-4 `BENCH_obs` configuration), allocation audits
/// of the span-recording hot path in both modes, and a Chrome
/// `trace_event` export round-tripped through the exporter's own
/// parser.
fn bench_trace(path: &str, scale: f64) {
    use csar_bench::{chrome_trace, trace_overhead};

    header("Span recording hot path: heap allocations per recorded span");
    let audit_off = trace_overhead::trace_record_alloc_audit(4096, false);
    let audit_on = trace_overhead::trace_record_alloc_audit(4096, true);
    for (mode, a) in [("tracing off", &audit_off), ("tracing  on", &audit_on)] {
        println!(
            "{mode}: {} recorded spans: warmup {} allocs, steady {} allocs",
            a.ops, a.warmup_allocs, a.steady_allocs
        );
    }

    header("Tracing-on vs tracing-off (sim wall-clock, real payloads, metrics on)");
    let grid = trace_overhead::compare_tracing(scale);
    println!(
        "{:>24} {:>14} {:>14} {:>10} {:>9}",
        "case", "off ns", "on ns", "spans", "overhead"
    );
    let cases: Vec<Json> = grid
        .iter()
        .map(|c| {
            println!(
                "{:>24} {:>14} {:>14} {:>10} {:>8.2}%",
                c.case.label(),
                c.off.wall_ns,
                c.on.wall_ns,
                c.spans_on,
                c.overhead_pct(),
            );
            Json::obj([
                ("case", Json::from(c.case.label())),
                ("off_wall_ns", Json::from(c.off.wall_ns)),
                ("on_wall_ns", Json::from(c.on.wall_ns)),
                ("off_wall_mbps", Json::from(c.off.wall_write_mbps())),
                ("on_wall_mbps", Json::from(c.on.wall_write_mbps())),
                ("bytes_written", Json::from(c.on.virt.bytes_written)),
                ("virtual_ns", Json::from(c.on.virt.duration_ns)),
                ("overhead_pct", Json::from(c.overhead_pct())),
                (
                    "round_overheads_pct",
                    Json::Arr(c.round_overheads_pct.iter().map(|&r| Json::from(r)).collect()),
                ),
                ("spans_on", Json::from(c.spans_on)),
                (
                    "phase_counts",
                    Json::Obj(
                        c.phase_counts
                            .iter()
                            .map(|&(p, n)| (p.to_string(), Json::from(n)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();

    header("Chrome trace_event export round-trip");
    let sample = trace_overhead::sample_traced_spans(scale.min(0.25));
    let (spans, clamped) = chrome_trace::clamp_into_parents(&sample);
    let report = chrome_trace::validate_nesting(&spans).unwrap_or_else(|e| {
        eprintln!("error: causal nesting violated: {e}");
        std::process::exit(1);
    });
    let chrome = chrome_trace::to_chrome_json(&spans).to_pretty();
    let roundtrip_ok = chrome_trace::parse_chrome_json(&chrome).as_deref() == Ok(&spans[..]);
    if !roundtrip_ok {
        eprintln!("error: Chrome export did not round-trip through its own parser");
        std::process::exit(1);
    }
    println!(
        "{} spans, {} trees, max depth {}, {} clamped; round-trip ok",
        report.spans, report.trees, report.max_depth, clamped
    );

    let audit_json = |a: &csar_bench::obs::ObsAllocAudit| {
        Json::obj([
            ("ops", Json::from(a.ops)),
            ("warmup_allocs", Json::from(a.warmup_allocs)),
            ("steady_allocs", Json::from(a.steady_allocs)),
        ])
    };
    let body = Json::obj([
        (
            "trace_alloc_audit",
            Json::obj([("off", audit_json(&audit_off)), ("on", audit_json(&audit_on))]),
        ),
        ("cases", Json::Arr(cases)),
        (
            "chrome_roundtrip",
            Json::obj([
                ("spans", Json::from(report.spans as u64)),
                ("trees", Json::from(report.trees as u64)),
                ("max_depth", Json::from(report.max_depth as u64)),
                ("clamped", Json::from(clamped as u64)),
                ("roundtrip_ok", Json::from(roundtrip_ok)),
            ]),
        ),
    ])
    .to_pretty();
    std::fs::write(path, body).unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote tracing ablation to {path}");
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
