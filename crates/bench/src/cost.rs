//! The deterministic cost ledger behind `BENCH_cost.json`.
//!
//! The paper compares RAID1, RAID5 and Hybrid by what each access costs
//! the cluster: the requests it sends, the bytes it moves, and whether
//! it must read old data and parity under the §5.1 lock. The simulator
//! makes every one of those costs exact, and so are two host-side costs:
//! heap allocations (counted per thread by [`crate::alloc_count`]) and
//! trace spans. The ledger records only such exact integers and reads no
//! clock, so a fresh run reproduces the committed file byte for byte;
//! tier-1 `cmp`s it. Allocation counts depend on the toolchain:
//! regenerate the file with `figures --bench cost` when rustc changes.
//!
//! Two parts:
//!
//! * **Allocation audits** of the zero-allocation hot paths: the
//!   whole-group parity fold ([`whole_group_alloc_audit`]), metric
//!   recording on a warm registry ([`registry_alloc_audit`]) and
//!   [`MetricsRegistry::record_trace`] with tracing off and on
//!   ([`trace_record_alloc_audit`]). Each must report zero steady-state
//!   allocations.
//! * **The per-case table** ([`case_cost`]): RAID1/RAID5/Hybrid × the
//!   four [`Shape`]s on the perfbench geometry (5 servers, 64 KiB stripe
//!   unit, real payloads, metrics on). Each case runs a warm-up phase,
//!   settles the disks, then runs a measured phase of a fixed op count
//!   and records its requests, virtual time, bytes, nonzero metric
//!   counters, allocations (untraced and traced) and spans.
//!
//! Host-timed costs (XOR bandwidth, fold time, tracing overhead, the
//! sim's host ns per request) live in perfbench, reported with their
//! spreads. The `obs_record` crit bench times one metric or span
//! record, so instrumentation cost is ns per record × records per op.

use crate::alloc_count;
use csar_core::proto::Scheme;
use csar_obs::trace::{Phase, SpanId, TraceId, TraceSpan};
use csar_obs::{Ctr, Gauge, Hist, MetricsRegistry, Snapshot};
use csar_parity::ParityAccumulator;
use csar_sim::{HwProfile, Op, RunStats, SimCluster};
use csar_store::{BufferPool, Json, SplitMix64};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Allocation audits
// ---------------------------------------------------------------------------

/// Result of [`whole_group_alloc_audit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocAudit {
    /// Data blocks per group.
    pub width: usize,
    /// Block length, bytes.
    pub unit: usize,
    /// Groups computed after warmup.
    pub groups: u64,
    /// Heap allocations during the first (warmup) group: the
    /// accumulator's buffer and the pool's scratch block.
    pub warmup_allocs: u64,
    /// Heap allocations over all post-warmup groups combined. The
    /// zero-allocation datapath claim is exactly `steady_allocs == 0`.
    pub steady_allocs: u64,
}

fn filled(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn compute_group(acc: &mut ParityAccumulator, pool: &Arc<BufferPool>, blocks: &[Vec<u8>]) -> u8 {
    acc.reset();
    for b in blocks {
        acc.fold(b);
    }
    let mut out = pool.get();
    out.copy_from_slice(acc.current());
    out[0] // observable result so the fold cannot be optimised away
}

/// Count heap allocations per whole-group parity computation on the
/// reuse path (accumulator + pooled scratch).
pub fn whole_group_alloc_audit(width: usize, unit: usize, groups: u64) -> AllocAudit {
    let mut rng = SplitMix64::new(0xDA7A_0002);
    let blocks: Vec<Vec<u8>> = (0..width).map(|_| filled(&mut rng, unit)).collect();
    let mut acc = ParityAccumulator::new(unit);
    let pool = BufferPool::new(unit, 2);
    let (_, warmup_allocs) = alloc_count::count(|| compute_group(&mut acc, &pool, &blocks));
    let (_, steady_allocs) = alloc_count::count(|| {
        let mut sink = 0u8;
        for _ in 0..groups {
            sink ^= compute_group(&mut acc, &pool, &blocks);
        }
        sink
    });
    AllocAudit { width, unit, groups, warmup_allocs, steady_allocs }
}

/// Result of [`registry_alloc_audit`] and [`trace_record_alloc_audit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordAudit {
    /// Recorded operations after warmup.
    pub ops: u64,
    /// Heap allocations during the first recorded operation.
    pub warmup_allocs: u64,
    /// Heap allocations over all post-warmup operations combined; the
    /// recording hot path's claim is exactly `steady_allocs == 0`.
    pub steady_allocs: u64,
}

fn record_one(reg: &MetricsRegistry) -> u64 {
    reg.inc(Ctr::SrvRequests);
    reg.add(Ctr::SrvDataBytes, 64 * 1024);
    reg.observe(Hist::OpWriteNs, 123_456);
    reg.gauge_set(Gauge::SrvQueueDepth, 3);
    reg.counter(Ctr::SrvRequests) // observable so nothing is elided
}

/// Count heap allocations per recorded operation (one counter inc, one
/// byte add, one histogram observe, one gauge store) on a warm registry.
pub fn registry_alloc_audit(ops: u64) -> RecordAudit {
    let reg = MetricsRegistry::new();
    reg.set_enabled(true);
    let (_, warmup_allocs) = alloc_count::count(|| record_one(&reg));
    let (_, steady_allocs) = alloc_count::count(|| {
        let mut sink = 0u64;
        for _ in 0..ops {
            sink ^= record_one(&reg);
        }
        sink
    });
    RecordAudit { ops, warmup_allocs, steady_allocs }
}

/// Count heap allocations per [`MetricsRegistry::record_trace`] on a
/// warm registry, with tracing `on` or off. Off is the request-path
/// default (a single relaxed load); on stamps the preallocated span
/// ring through a seqlock. Steady state must be zero either way.
pub fn trace_record_alloc_audit(ops: u64, on: bool) -> RecordAudit {
    let reg = MetricsRegistry::new();
    reg.set_enabled(true);
    reg.set_tracing(on);
    let span = TraceSpan {
        trace: TraceId(7),
        span: SpanId(9),
        parent: SpanId(1),
        phase: Phase::Service,
        start_ns: 1_000,
        dur_ns: 250,
        aux: 3,
    };
    let (_, warmup_allocs) = alloc_count::count(|| reg.record_trace(&span));
    let (_, steady_allocs) = alloc_count::count(|| {
        for i in 0..ops {
            reg.record_trace(&TraceSpan { start_ns: i, ..span });
        }
    });
    RecordAudit { ops, warmup_allocs, steady_allocs }
}

// ---------------------------------------------------------------------------
// Per-case table
// ---------------------------------------------------------------------------

/// I/O servers in every case's cluster (the perfbench geometry).
const SERVERS: u32 = 5;
/// Stripe unit of every case's file.
const UNIT: u64 = 64 * 1024;
/// Data bytes per parity group.
const GROUP: u64 = (SERVERS as u64 - 1) * UNIT;
/// Whole groups per full-stripe op.
const GROUPS_PER_OP: u64 = 2;
/// Disjoint file windows the ops cycle over, one per step of the RAID5
/// parity rotation, so a pass over them loads every server alike.
const WINDOWS: u64 = SERVERS as u64;
/// Bytes per small overwrite.
const SMALL: u64 = 4 * 1024;
/// The server a degraded-read case fails.
const FAILED: u32 = 1;
/// Measured ops per case in the committed ledger.
pub const OPS: u64 = 40;

/// The schemes the ledger compares.
const SCHEMES: [Scheme; 3] = [Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid];

/// One access shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Two whole parity groups per write (Fig. 4a).
    FullStripeWrite,
    /// One 4 KiB overwrite inside a written group (Fig. 4b).
    SmallOverwrite,
    /// Two whole groups per read.
    FullStripeRead,
    /// The same reads with one server failed, served by reconstruction.
    DegradedRead,
}

impl Shape {
    /// Every shape, in ledger order.
    pub const ALL: [Shape; 4] =
        [Shape::FullStripeWrite, Shape::SmallOverwrite, Shape::FullStripeRead, Shape::DegradedRead];

    /// Stable JSON label.
    pub fn label(self) -> &'static str {
        match self {
            Shape::FullStripeWrite => "full_stripe_write",
            Shape::SmallOverwrite => "overwrite_4k",
            Shape::FullStripeRead => "full_stripe_read",
            Shape::DegradedRead => "degraded_read",
        }
    }

    /// `n` ops of this shape, cycling over the windows.
    fn ops(self, file: usize, n: u64) -> Vec<Op> {
        let len = GROUPS_PER_OP * GROUP;
        (0..n)
            .map(|i| {
                let off = (i % WINDOWS) * len;
                match self {
                    Shape::FullStripeWrite => Op::Write { file, off, len },
                    Shape::SmallOverwrite => Op::Write { file, off: off + (i % 16) * SMALL, len: SMALL },
                    Shape::FullStripeRead | Shape::DegradedRead => Op::Read { file, off, len },
                }
            })
            .collect()
    }
}

/// Every `(scheme, shape)` case, in ledger order.
pub fn cases() -> impl Iterator<Item = (Scheme, Shape)> {
    SCHEMES.into_iter().flat_map(|s| Shape::ALL.into_iter().map(move |sh| (s, sh)))
}

/// Host-side switches of one measured run. None of them may change the
/// simulated outcome; the invariance tests check every case.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Real payload bytes instead of phantom ones.
    pub data: bool,
    /// Metric recording on the servers and the simulator's client
    /// registry.
    pub metrics: bool,
    /// Causal tracing.
    pub tracing: bool,
}

impl Mode {
    /// The ledger's configuration: real payloads, metrics on.
    pub const LEDGER: Mode = Mode { data: true, metrics: true, tracing: false };
}

/// What one measured phase cost.
#[derive(Debug, Clone)]
pub struct Measured {
    pub stats: RunStats,
    /// Metric counters the phase moved, `(name, delta)`, nonzero only.
    pub counters: Vec<(String, u64)>,
    /// Heap allocations on this thread during the phase.
    pub allocs: u64,
    /// Spans the phase emitted (empty unless tracing).
    pub spans: Vec<TraceSpan>,
}

fn counter_delta(before: &Snapshot, after: &Snapshot) -> Vec<(String, u64)> {
    after
        .counters
        .iter()
        .map(|(name, v)| (name.clone(), v - before.counter(name)))
        .filter(|&(_, d)| d > 0)
        .collect()
}

/// Run one case under `mode`: write the whole region, fail a server for
/// a degraded read, run the `ops`-op list once as warm-up (so one-time
/// buffer growth stays out of the count), settle the disks, then run
/// the list again as the measured phase.
pub fn measure(scheme: Scheme, shape: Shape, ops: u64, mode: Mode) -> Measured {
    let mut sim = SimCluster::new(HwProfile::myrinet_pentium3(), SERVERS, 1);
    sim.set_data_payloads(mode.data);
    sim.set_metrics_enabled(mode.metrics);
    sim.set_tracing(mode.tracing);
    let file = sim.create_file("cost", scheme, UNIT);
    sim.run_phase(vec![(0, vec![Op::Write { file, off: 0, len: WINDOWS * GROUPS_PER_OP * GROUP }])]);
    if shape == Shape::DegradedRead {
        sim.fail_server(FAILED);
    }
    sim.run_phase(vec![(0, shape.ops(file, ops))]);
    sim.settle_disks();
    let _ = sim.take_traces();
    let before = sim.metrics_snapshot();
    let phase = vec![(0, shape.ops(file, ops))];
    let (stats, allocs) = alloc_count::count(|| sim.run_phase(phase));
    let counters = counter_delta(&before, &sim.metrics_snapshot());
    let spans = sim.take_traces();
    Measured { stats, counters, allocs, spans }
}

/// One row of the per-case table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseCost {
    pub scheme: Scheme,
    pub shape: Shape,
    pub stats: RunStats,
    pub counters: Vec<(String, u64)>,
    /// Heap allocations in the measured phase, untraced.
    pub allocs: u64,
    /// The same phase with tracing on.
    pub allocs_traced: u64,
    /// Spans the traced phase emitted.
    pub spans: u64,
}

/// Measure one case untraced and traced (the ledger configuration
/// otherwise). Panics if tracing changed the simulated outcome.
pub fn case_cost(scheme: Scheme, shape: Shape, ops: u64) -> CaseCost {
    let plain = measure(scheme, shape, ops, Mode::LEDGER);
    let traced = measure(scheme, shape, ops, Mode { tracing: true, ..Mode::LEDGER });
    assert_eq!(traced.stats, plain.stats, "tracing changed the simulated outcome");
    CaseCost {
        scheme,
        shape,
        stats: plain.stats,
        counters: plain.counters,
        allocs: plain.allocs,
        allocs_traced: traced.allocs,
        spans: traced.spans.len() as u64,
    }
}

// ---------------------------------------------------------------------------
// The ledger
// ---------------------------------------------------------------------------

/// Everything `BENCH_cost.json` holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// Measured ops per case.
    pub ops: u64,
    pub fold: AllocAudit,
    pub registry: RecordAudit,
    pub record_trace_off: RecordAudit,
    pub record_trace_on: RecordAudit,
    pub cases: Vec<CaseCost>,
}

/// Build the ledger with `ops` measured ops per case ([`OPS`] for the
/// committed file).
pub fn ledger(ops: u64) -> Ledger {
    Ledger {
        ops,
        fold: whole_group_alloc_audit(5, 64 * 1024, 256),
        registry: registry_alloc_audit(4096),
        record_trace_off: trace_record_alloc_audit(4096, false),
        record_trace_on: trace_record_alloc_audit(4096, true),
        cases: cases().map(|(scheme, shape)| case_cost(scheme, shape, ops)).collect(),
    }
}

impl Ledger {
    /// The `BENCH_cost.json` document: exact integers and labels only.
    pub fn to_json(&self) -> Json {
        let fold = |a: &AllocAudit| {
            Json::obj([
                ("width", Json::from(a.width)),
                ("unit", Json::from(a.unit)),
                ("groups", Json::from(a.groups)),
                ("warmup_allocs", Json::from(a.warmup_allocs)),
                ("steady_allocs", Json::from(a.steady_allocs)),
            ])
        };
        let record = |a: &RecordAudit| {
            Json::obj([
                ("ops", Json::from(a.ops)),
                ("warmup_allocs", Json::from(a.warmup_allocs)),
                ("steady_allocs", Json::from(a.steady_allocs)),
            ])
        };
        let cases = self.cases.iter().map(|c| {
            Json::obj([
                ("scheme", Json::from(c.scheme.label())),
                ("shape", Json::from(c.shape.label())),
                ("ops", Json::from(c.stats.ops)),
                ("requests", Json::from(c.stats.requests)),
                ("virtual_ns", Json::from(c.stats.duration_ns)),
                ("bytes_written", Json::from(c.stats.bytes_written)),
                ("bytes_read", Json::from(c.stats.bytes_read)),
                ("allocs", Json::from(c.allocs)),
                ("allocs_traced", Json::from(c.allocs_traced)),
                ("spans", Json::from(c.spans)),
                ("counters", Json::Obj(c.counters.iter().map(|(n, v)| (n.clone(), Json::from(*v))).collect())),
            ])
        });
        Json::obj([
            (
                "geometry",
                Json::obj([
                    ("servers", Json::from(SERVERS)),
                    ("unit", Json::from(UNIT)),
                    ("ops_per_case", Json::from(self.ops)),
                    ("failed_server", Json::from(FAILED)),
                ]),
            ),
            (
                "alloc_audits",
                Json::obj([
                    ("fold", fold(&self.fold)),
                    ("registry", record(&self.registry)),
                    ("record_trace_off", record(&self.record_trace_off)),
                    ("record_trace_on", record(&self.record_trace_on)),
                ]),
            ),
            ("cases", Json::Arr(cases.collect())),
        ])
    }
}

/// A deterministic traced span batch for the Chrome exporter checks:
/// one tracing-on run of the RAID5 full-stripe write and the Hybrid
/// 4 KiB overwrite, concatenated. Same seed, same virtual clock ⇒ same
/// spans on every call.
pub fn sample_traced_spans(scale: f64) -> Vec<TraceSpan> {
    let ops = ((8.0 * scale).ceil() as u64).max(2);
    let traced = Mode { tracing: true, ..Mode::LEDGER };
    let mut spans = measure(Scheme::Raid5, Shape::FullStripeWrite, ops, traced).spans;
    let partial = measure(Scheme::Hybrid, Shape::SmallOverwrite, ops, traced).spans;
    // Each run is a fresh sim with its own trace-ID counter, so shift the
    // second batch's trace IDs past the first's — span identity is
    // `(trace, span)`, so distinct trace IDs keep the batches' trees
    // from cross-linking.
    let shift = spans.iter().map(|s| s.trace.0).max().unwrap_or(0);
    spans.extend(partial.into_iter().map(|mut s| {
        s.trace.0 += shift;
        s
    }));
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Measured ops per case in the tests: one pass over the windows.
    const TEST_OPS: u64 = WINDOWS;

    /// After warmup, a whole-group parity computation performs exactly
    /// zero heap allocations.
    #[test]
    fn steady_state_group_parity_is_allocation_free() {
        let audit = whole_group_alloc_audit(5, 16 * 1024, 64);
        assert!(audit.warmup_allocs > 0, "warmup must allocate the reusable buffers");
        assert_eq!(
            audit.steady_allocs, 0,
            "steady-state whole-group parity computation must not touch the heap"
        );
    }

    /// The recording hot path must never touch the heap — it sits on
    /// the zero-allocation request path.
    #[test]
    fn registry_recording_is_allocation_free() {
        let audit = registry_alloc_audit(4096);
        assert_eq!(audit.steady_allocs, 0, "metric recording must not allocate");
    }

    /// The disabled path sits on the zero-allocation request path.
    #[test]
    fn disabled_trace_recording_is_allocation_free() {
        let audit = trace_record_alloc_audit(4096, false);
        assert_eq!(audit.steady_allocs, 0, "tracing-off recording must not allocate");
    }

    /// Enabled recording stamps a preallocated ring: also heap-free.
    #[test]
    fn enabled_trace_recording_is_allocation_free() {
        let audit = trace_record_alloc_audit(4096, true);
        assert_eq!(audit.steady_allocs, 0, "tracing-on recording must not allocate");
    }

    /// Phantom or real payloads only change host-side byte handling: the
    /// simulated protocol, virtual timings and byte accounting are
    /// identical for every case.
    #[test]
    fn datapath_mode_never_changes_virtual_time() {
        for (scheme, shape) in cases() {
            let run = |data| measure(scheme, shape, TEST_OPS, Mode { data, metrics: false, tracing: false });
            let (phantom, data) = (run(false), run(true));
            assert_eq!(data.stats, phantom.stats, "{} {}: outcome diverged", scheme.label(), shape.label());
        }
    }

    /// Metrics on or off only changes host-side bookkeeping: the
    /// simulated protocol and virtual timings are identical for every
    /// case, and the metrics-on side records what it served.
    #[test]
    fn metrics_mode_never_changes_virtual_time() {
        for (scheme, shape) in cases() {
            let run = |metrics| measure(scheme, shape, TEST_OPS, Mode { metrics, ..Mode::LEDGER });
            let (off, on) = (run(false), run(true));
            let case = format!("{} {}", scheme.label(), shape.label());
            assert_eq!(on.stats, off.stats, "{case}: outcome diverged");
            let ctr = |c: Ctr| on.counters.iter().find(|(n, _)| n == c.name()).map_or(0, |&(_, v)| v);
            assert_eq!(ctr(Ctr::SrvRequests), on.stats.requests, "{case}: every request is counted");
            // RAID1 has no parity groups to classify or reconstruct.
            let parity = scheme != Scheme::Raid1;
            if parity && shape == Shape::FullStripeWrite {
                assert!(ctr(Ctr::WrWholeGroups) > 0, "{case}: whole-group writes must be classified");
            }
            if parity && shape == Shape::DegradedRead {
                assert!(ctr(Ctr::RdDegradedRecons) > 0, "{case}: degraded reads must reconstruct");
            }
        }
    }

    /// The metrics-off baseline records nothing at all.
    #[test]
    fn metrics_off_records_nothing() {
        let off = measure(Scheme::Raid5, Shape::FullStripeWrite, 2, Mode { metrics: false, ..Mode::LEDGER });
        assert_eq!(off.counters, Vec::new(), "disabled registries must stay empty");
    }

    /// Tracing only changes host-side bookkeeping: the simulated
    /// protocol and virtual timings are identical for every case, and
    /// the traced side records the expected phases.
    #[test]
    fn tracing_mode_never_changes_virtual_time() {
        for (scheme, shape) in cases() {
            let run = |tracing| measure(scheme, shape, TEST_OPS, Mode { tracing, ..Mode::LEDGER });
            let (off, on) = (run(false), run(true));
            let case = format!("{} {}", scheme.label(), shape.label());
            assert_eq!(on.stats, off.stats, "{case}: outcome diverged");
            assert!(off.spans.is_empty(), "{case}: tracing-off run must record no spans");
            for want in [Phase::Op, Phase::WireRtt, Phase::SrvQueue, Phase::Service] {
                assert!(on.spans.iter().any(|s| s.phase == want), "{case}: no {} span", want.name());
            }
        }
    }

    /// The exporter sample is deterministic (virtual clock + sim-owned
    /// trace IDs) and causally well-formed.
    #[test]
    fn sample_spans_are_deterministic_and_nest() {
        let a = sample_traced_spans(0.05);
        let b = sample_traced_spans(0.05);
        assert_eq!(a, b, "sample must be bit-identical across calls");
        let report = crate::chrome_trace::validate_nesting(&a).expect("sample nests");
        assert!(report.trees > 0 && report.spans > 0);
    }
}
