//! CSAR benchmark: end-to-end and per-layer metrics on three workloads.
//!
//! ```text
//! csar-perfbench --workload <full_stripe|small_overwrite|contended_rmw>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a summary on stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 if any output check fails, 2 on a usage error. See README.md
//! for the workloads, the metrics and why they were chosen.

mod layers;
mod live;
mod report;
mod shape;
mod sim;
mod spans;
mod stats;

use csar_cluster::OpStats;
use csar_obs::trace::Phase;
use layers::Layers;
use live::{Collector, Inputs, Live, Pass, RoundLog};
use report::{Checks, Report};
use shape::{Shape, Workload};
use sim::{PhaseLog, Sim};
use spans::PhaseSelf;
use stats::{median, peak_rss_mb, quantile, reset_peak_rss, window_mbps};
use std::time::{Duration, Instant};

/// Set-ups per untraced run, spread over its measuring time; `setup_s`
/// is their median.
const SETUPS: usize = 31;
/// Ops per throughput window (see [`stats::window_mbps`]).
const WINDOW: usize = 16;
/// Share of the measuring time given to the simulator.
const SIM_SHARE: f64 = 0.4;
/// Most simulator warm-up phases before measuring.
const SIM_WARMUP: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The measured cluster pair and how long each set-up took.
struct Bench {
    shape: Shape,
    seed: u64,
    live: Live,
    sim: Sim,
    setup_times: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Generate the seeded inputs untimed, then set up a live and a simulated
/// cluster and return them with the seconds that took. Only the
/// program's work is timed: spawning, creating and prefilling.
fn timed_setup(shape: Shape, seed: u64) -> (Live, Sim, f64) {
    let inputs = Inputs::new(shape, seed);
    let t = Instant::now();
    let (live, sim) = (Live::setup(shape, inputs), Sim::setup(shape));
    (live, sim, t.elapsed().as_secs_f64())
}

impl Bench {
    /// Set up the measured cluster pair; this is the first timed set-up.
    fn setup(shape: Shape, seed: u64) -> Bench {
        let (live, sim, secs) = timed_setup(shape, seed);
        Bench {
            shape,
            seed,
            live,
            sim,
            setup_times: vec![secs],
            attempted: 0,
            failed: 0,
        }
    }

    /// Time one more set-up of a spare cluster pair, then shut it down
    /// untimed and hand the freed memory back to the kernel, so that
    /// every set-up starts from fresh pages rather than from whatever
    /// the allocator happened to keep.
    fn spare_setup(&mut self) {
        let (live, sim, secs) = timed_setup(self.shape, self.seed);
        self.setup_times.push(secs);
        live.shutdown();
        drop(sim);
        stats::release_free_memory();
    }

    fn live_round(&mut self, checks: &mut Checks, spans: Option<&mut Collector>) -> RoundLog {
        let log = self.live.round(checks, spans);
        for p in &log.passes {
            self.attempted += p.lat_ns.len() as u64;
            self.failed += p.failed;
        }
        log
    }

    /// Measure until `until`: live rounds interleaved with simulator
    /// phases, the simulator getting [`SIM_SHARE`] of the time, so both
    /// sample the host over the whole run. A warm-up live round and
    /// warm-up phases come first and are discarded. Without `traced`,
    /// the spare set-ups are spread evenly over the run too. With
    /// `traced`, every live round and simulator phase is followed by a
    /// traced twin, and every round by one batch of isolated layer
    /// timings.
    fn measure(
        &mut self,
        until: Instant,
        mut traced: Option<&mut Traced>,
        checks: &mut Checks,
    ) -> Measured {
        // Forget the set-up's peak, then take the peak over warm-up:
        // the clusters are at their full size after it, and what grows
        // later is the benchmark's own sample logs.
        reset_peak_rss();
        self.live_round(checks, None);
        warm_up(&mut self.sim);
        let mut m = Measured {
            peak_rss_mb: peak_rss_mb() - self.live.input_bytes() as f64 / 1e6,
            ..Measured::default()
        };
        let (from, span) = (
            Instant::now(),
            until.saturating_duration_since(Instant::now()),
        );
        while m.rounds.len() < 2 || m.phases.len() < 3 || Instant::now() < until {
            let done = self.setup_times.len();
            if traced.is_none()
                && done < SETUPS
                && from.elapsed() >= span.mul_f64(done as f64 / SETUPS as f64)
            {
                self.spare_setup();
            }
            let t = Instant::now();
            m.rounds.push(self.live_round(checks, None));
            if let Some(tr) = traced.as_deref_mut() {
                self.live.set_tracing(true);
                m.traced_rounds
                    .push(self.live_round(checks, Some(&mut tr.live)));
                self.live.set_tracing(false);
            }
            let sim_until = Instant::now() + t.elapsed().mul_f64(SIM_SHARE / (1.0 - SIM_SHARE));
            while m.phases.is_empty() || Instant::now() < sim_until {
                m.phases.push(self.sim.phase(None));
                if let Some(tr) = traced.as_deref_mut() {
                    let p = self.sim.phase(Some(&mut tr.sim));
                    checks.same(
                        "traced sim phase matches untraced",
                        m.phases[0].model(),
                        p.model(),
                    );
                }
            }
            if let Some(tr) = traced.as_deref_mut() {
                tr.layers.batch(checks);
            }
        }

        let first = m.rounds[0].requests();
        for r in m.rounds.iter().chain(&m.traced_rounds) {
            checks.same("requests per pass repeat every round", first, r.requests());
            checks.same(
                "transport retries",
                0,
                r.passes.iter().map(|p| p.stats.retries).sum::<u64>(),
            );
        }
        self.live.check_parity(checks);
        for l in &m.phases {
            checks.same("sim phase repeats exactly", m.phases[0].model(), l.model());
            self.attempted += l.ops;
        }
        m
    }
}

/// Span collectors and isolated layer timings of a traced run.
struct Traced {
    live: Collector,
    sim: PhaseSelf,
    layers: Layers,
}

/// Everything one run measured, warm-up excluded.
#[derive(Default)]
struct Measured {
    rounds: Vec<RoundLog>,
    traced_rounds: Vec<RoundLog>,
    phases: Vec<PhaseLog>,
    /// Peak RSS over warm-up less the benchmark's seeded inputs, MB.
    peak_rss_mb: f64,
}

/// Run simulator phases until one reproduces its predecessor's virtual
/// results (the server-side overflow and cache state reach their steady
/// state within a few phases), at most [`SIM_WARMUP`] of them.
fn warm_up(sim: &mut Sim) {
    let mut prev = sim.phase(None).model();
    for _ in 1..SIM_WARMUP {
        let next = sim.phase(None).model();
        if next == prev {
            return;
        }
        prev = next;
    }
}

fn lat_us(rounds: &[RoundLog], pass: Pass) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.pass(pass).lat_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect()
}

fn window(rounds: &[RoundLog], pass: Pass, op_bytes: u64) -> f64 {
    let lat: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.pass(pass).lat_ns.iter().copied())
        .collect();
    window_mbps(&lat, op_bytes, WINDOW)
}

fn end_to_end(b: &mut Bench, seconds: Duration, checks: &mut Checks, out: &mut Report) {
    let start = Instant::now();
    let shape = b.shape;
    let m = b.measure(start + seconds, None, checks);
    let rounds = &m.rounds;

    let (stored, _) = b.live.storage();
    let storage_ratio = stored as f64 / shape.region as f64;
    if shape.workload == Workload::FullStripe {
        // RAID5 over 5 servers stores (n-1+1)/(n-1) bytes per user byte.
        checks.same("RAID5 storage ratio", 1.25, storage_ratio);
    }
    let mut cpu_per_mb: Vec<f64> = rounds
        .iter()
        .map(|r| {
            let bytes: u64 = r
                .passes
                .iter()
                .map(|p| p.lat_ns.len() as u64 * shape.op_bytes)
                .sum();
            let cpu: u64 = r.passes.iter().map(|p| p.cpu_ns).sum();
            cpu as f64 / 1e3 / (bytes as f64 / 1e6)
        })
        .collect();

    out.put("setup_s", median(&mut b.setup_times), "s");
    let mut w = lat_us(rounds, Pass::Write);
    out.put("write_p50_us", quantile(&mut w, 0.5), "us");
    out.put("write_p90_us", quantile(&mut w, 0.9), "us");
    let mut r = lat_us(rounds, Pass::Read);
    out.put("read_p50_us", quantile(&mut r, 0.5), "us");
    out.put("read_p90_us", quantile(&mut r, 0.9), "us");
    out.put(
        "degraded_read_p50_us",
        median(&mut lat_us(rounds, Pass::Degraded)),
        "us",
    );
    out.put(
        "write_mbps",
        window(rounds, Pass::Write, shape.op_bytes),
        "MB/s",
    );
    out.put(
        "read_mbps",
        window(rounds, Pass::Read, shape.op_bytes),
        "MB/s",
    );
    out.put("cpu_us_per_mb", median(&mut cpu_per_mb), "us/MB");
    out.put("storage_ratio", storage_ratio, "ratio");
    out.put("peak_rss_mb", m.peak_rss_mb, "MB");
    out.put("model_write_mbps", m.phases[0].model_mbps(), "MB/s");
}

fn per_layer(b: &mut Bench, seed: u64, seconds: Duration, checks: &mut Checks, out: &mut Report) {
    let start = Instant::now();
    let shape = b.shape;
    let mut tr = Traced {
        live: Collector::default(),
        sim: PhaseSelf::default(),
        layers: Layers::new(shape, seed, checks),
    };
    let m = b.measure(start + seconds, Some(&mut tr), checks);
    let layers = tr.layers.times();
    let (plain, traced, sims) = (&m.rounds, &m.traced_rounds, &m.phases);

    let total = |rs: &[RoundLog], f: fn(&OpStats) -> u64| -> u64 {
        rs.iter().flat_map(|r| &r.passes).map(|p| f(&p.stats)).sum()
    };
    let ops = total(plain, |s| s.ops);
    let retries = total(plain, |s| s.retries) + total(traced, |s| s.retries);
    let round_ns =
        |rs: &[RoundLog]| median(&mut rs.iter().map(|r| r.op_ns() as f64).collect::<Vec<_>>());
    let (_, overflow) = b.live.storage();
    let model = sims[0];
    let mut host_per_req: Vec<f64> = sims
        .iter()
        .map(|l| l.host_ns as f64 / l.requests as f64)
        .collect();
    let ph = &tr.live.phases;

    out.put("parity.xor_gbps", layers.xor_gbps, "GB/s");
    out.put("parity.fold_us_per_group", layers.fold_us_per_group, "us");
    out.put("parity.xor_us", ph.us_per_op(Phase::Xor), "us");
    out.put("store.sparse_write_ns", layers.sparse_write_ns, "ns");
    out.put("store.sparse_read_ns", layers.sparse_read_ns, "ns");
    out.put("core.client.plan_us", layers.plan_us, "us");
    out.put("core.server.handle_ns", layers.handle_ns, "ns");
    out.put(
        "core.server.requests_per_op",
        total(plain, |s| s.requests) as f64 / ops as f64,
        "count",
    );
    out.put(
        "core.server.parked_per_op",
        model.contended as f64 / model.ops as f64,
        "count",
    );
    out.put("core.server.queue_us", ph.us_per_op(Phase::SrvQueue), "us");
    out.put("core.server.service_us", ph.us_per_op(Phase::Service), "us");
    let ratio = if model.acquired == 0 {
        0.0
    } else {
        model.contended as f64 / model.acquired as f64
    };
    out.put("core.locks.contended_ratio", ratio, "ratio");
    out.put(
        "core.locks.wait_us",
        tr.sim.us_per_op(Phase::LockWait),
        "us",
    );
    out.put(
        "core.overflow.bytes_per_user_byte",
        overflow as f64 / shape.region as f64,
        "ratio",
    );
    out.put("cluster.submit_us", ph.us_per_op(Phase::Submit), "us");
    out.put(
        "cluster.window_stall_us",
        ph.us_per_op(Phase::WindowStall),
        "us",
    );
    out.put("cluster.wire_rtt_us", ph.us_per_op(Phase::WireRtt), "us");
    out.put("cluster.deliver_us", ph.us_per_op(Phase::Deliver), "us");
    out.put(
        "cluster.ttfb_us",
        total(plain, |s| s.ttfb_ns) as f64 / ops as f64 / 1e3,
        "us",
    );
    out.put("cluster.retries", retries as f64, "count");
    out.put("sim.host_ns_per_request", median(&mut host_per_req), "ns");
    out.put(
        "obs.trace_overhead_pct",
        (round_ns(traced) / round_ns(plain) - 1.0) * 100.0,
        "%",
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("csar-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Before any thread exists, so the cluster's threads inherit it.
    match stats::pin_to_one_cpu() {
        Some(cpu) => eprintln!("csar-perfbench: pinned to CPU {cpu}"),
        None => eprintln!("csar-perfbench: could not pin to one CPU; running unpinned"),
    }
    let seconds = Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    let mut out = Report::default();
    let mut bench = Bench::setup(args.workload.shape(), args.seed);
    if args.trace {
        per_layer(&mut bench, args.seed, seconds, &mut checks, &mut out);
    } else {
        end_to_end(&mut bench, seconds, &mut checks, &mut out);
    }
    out.attempted = bench.attempted;
    out.failed = bench.failed;
    bench.live.shutdown();

    let correct = checks.passed() && out.failed == 0;
    eprintln!(
        "{} seed {} ({}s, trace {}): {} ops, {} failed",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        out.attempted,
        out.failed
    );
    eprint!("{}", out.table());
    for f in checks.failures() {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", out.json(correct));
    if !correct {
        std::process::exit(1);
    }
}
