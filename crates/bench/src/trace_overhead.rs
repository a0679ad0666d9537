//! Causal-tracing overhead ablation — the measurement behind
//! `BENCH_trace.json` (DESIGN.md §15).
//!
//! Three claims, one measurement each:
//!
//! * **[`compare_tracing`]** — host wall-clock of two request-path
//!   shapes with tracing enabled versus disabled
//!   ([`SimCluster::set_tracing`]), metrics *on* on both sides so the
//!   tracing-off baseline is exactly the PR-4 `BENCH_obs` metrics-on
//!   configuration. The shapes are the RAID5 multi-stripe whole-group
//!   write (the zero-allocation datapath's acceptance shape) and the
//!   Hybrid sub-unit partial write (the read-modify-write path the
//!   paper's §5 lock protocol exists for). Virtual time is identical
//!   either way — span recording sits outside the timing model — so
//!   any wall difference is the cost of span bookkeeping. The
//!   acceptance budget is **≤ 2 %** on the whole-group path.
//! * **[`trace_record_alloc_audit`]** — heap allocations per
//!   [`MetricsRegistry::record_trace`] on a warm registry, tracing off
//!   (one relaxed load, the request-path default) and tracing on (a
//!   seqlock-stamped store into the preallocated span ring). The
//!   steady-state target is **zero in both modes**: the disabled path
//!   sits on the zero-allocation request path, and the enabled path is
//!   allocation-*bounded* — all buffers are preallocated, per-op client
//!   bookkeeping is amortized, so recording itself never touches the
//!   heap.
//! * **[`sample_traced_spans`]** — a deterministic traced run of both
//!   shapes whose spans feed the Chrome exporter round-trip and nesting
//!   checks ([`crate::chrome_trace`]) in `BENCH_trace.json`.

use crate::alloc_count;
use crate::datapath::{WallRun, GROUPS_PER_OP, SERVERS, SLOTS, UNIT};
use crate::obs::ObsAllocAudit;
use csar_core::proto::Scheme;
use csar_obs::trace::{Phase, SpanId, TraceId, TraceSpan};
use csar_obs::MetricsRegistry;
use csar_sim::{HwProfile, Op, SimCluster};
use std::time::Instant;

/// One measured write-phase shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCase {
    /// RAID5 multi-stripe whole-group overwrites (parity folded from
    /// fresh data, no reads) — the datapath bench's acceptance shape.
    WholeGroup,
    /// Hybrid sub-unit partial writes — the §5 read-modify-write path,
    /// where per-request spans are largest relative to the data moved.
    HybridPartial,
}

impl TraceCase {
    /// Stable JSON label.
    pub fn label(self) -> &'static str {
        match self {
            TraceCase::WholeGroup => "multi_stripe_whole_group",
            TraceCase::HybridPartial => "hybrid_partial_write",
        }
    }

    fn scheme(self) -> Scheme {
        match self {
            TraceCase::WholeGroup => Scheme::Raid5,
            TraceCase::HybridPartial => Scheme::Hybrid,
        }
    }

    /// The measured steady-state op list.
    fn ops(self, file: usize, ops_n: u64) -> Vec<Op> {
        let group = (SERVERS as u64 - 1) * UNIT;
        match self {
            TraceCase::WholeGroup => {
                let len = GROUPS_PER_OP * group;
                (0..ops_n).map(|i| Op::Write { file, off: (i % SLOTS) * len, len }).collect()
            }
            TraceCase::HybridPartial => {
                // Sub-unit writes striding across groups: every one is a
                // partial (mirrored under Hybrid) write. Many more of
                // them than whole-group ops — each moves little data, and
                // a run must be long enough to rise above host noise.
                (0..ops_n * 16)
                    .map(|i| Op::Write { file, off: (i % (4 * SLOTS)) * group, len: UNIT / 2 })
                    .collect()
            }
        }
    }
}

/// Tracing-on vs tracing-off wall-clock for one shape.
#[derive(Debug, Clone)]
pub struct TraceComparison {
    pub case: TraceCase,
    /// Tracing disabled (metrics still on — the PR-4 baseline
    /// configuration) — best round.
    pub off: WallRun,
    /// Tracing enabled on the sim clients and every server engine —
    /// best round.
    pub on: WallRun,
    /// Per-round paired overhead, percent (off then on back to back,
    /// so host drift lands on both sides of each pair).
    pub round_overheads_pct: Vec<f64>,
    /// Spans recorded by the best tracing-on run's measured phase.
    pub spans_on: u64,
    /// `(phase name, count)` over those spans — the latency-attribution
    /// sample `BENCH_trace.json` embeds.
    pub phase_counts: Vec<(&'static str, u64)>,
}

impl TraceComparison {
    /// Relative wall-clock cost of tracing, percent (>0 ⇒ tracing-on is
    /// slower): the median of the paired per-round overheads, same
    /// estimator as the PR-4 metrics ablation. Budget: ≤ 2 %.
    pub fn overhead_pct(&self) -> f64 {
        let mut r = self.round_overheads_pct.clone();
        r.sort_by(|a, b| a.total_cmp(b));
        match r.len() {
            0 => 0.0,
            n if n % 2 == 1 => r[n / 2],
            n => (r[n / 2 - 1] + r[n / 2]) / 2.0,
        }
    }
}

fn phase_counts(spans: &[TraceSpan]) -> Vec<(&'static str, u64)> {
    Phase::ALL
        .into_iter()
        .map(|p| (p.name(), spans.iter().filter(|s| s.phase == p).count() as u64))
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// Build a seeded, settled sim for one case (metrics on — the off side
/// must reproduce the PR-4 metrics-on baseline). Returns the sim and
/// the file handle.
fn build_sim(case: TraceCase) -> (SimCluster, usize) {
    csar_obs::global().reset();
    let mut sim = SimCluster::new(HwProfile::myrinet_pentium3(), SERVERS, 1);
    sim.set_data_payloads(true);
    sim.set_metrics_enabled(true);
    let file = sim.create_file("trace", case.scheme(), UNIT);
    let group = (SERVERS as u64 - 1) * UNIT;
    let len = SLOTS * GROUPS_PER_OP * group;
    sim.run_phase(vec![(0, vec![Op::Write { file, off: 0, len }])]);
    sim.settle_disks();
    (sim, file)
}

/// One measured steady-state phase with tracing on or off. Returns the
/// wall run and the spans the phase recorded (empty when tracing is
/// off). Disks are settled first so back-to-back measurements on one
/// sim start from the same virtual state.
fn measured_phase(
    sim: &mut SimCluster,
    case: TraceCase,
    file: usize,
    tracing: bool,
    ops_n: u64,
) -> (WallRun, Vec<TraceSpan>) {
    sim.settle_disks();
    sim.set_tracing(tracing);
    let _ = sim.take_traces(); // earlier phases' spans are not the sample
    let ops = case.ops(file, ops_n);
    let t0 = Instant::now();
    let virt = sim.run_phase(vec![(0, ops)]);
    let wall = WallRun { virt, wall_ns: t0.elapsed().as_nanos() as u64 };
    let spans = sim.take_traces();
    sim.set_tracing(false);
    (wall, spans)
}

/// Run one measured write phase on a fresh sim with tracing on or off.
fn run_wall_trace(case: TraceCase, tracing: bool, ops_n: u64) -> (WallRun, Vec<TraceSpan>) {
    let (mut sim, file) = build_sim(case);
    let out = measured_phase(&mut sim, case, file, tracing, ops_n);
    sim.set_metrics_enabled(false);
    out
}

/// The comparison dumped into `BENCH_trace.json`: both shapes, tracing
/// off vs on, measured in 15 paired rounds with the median per-round
/// overhead reported (the drift-shedding estimator from
/// [`crate::obs::compare_all`]), hardened two ways beyond the metrics
/// ablation:
///
/// * **One sim per round, both sides on it.** A fresh sim per side
///   puts the multi-megabyte payload buffers at different heap
///   addresses on each side, and page placement swings the XOR+memcpy
///   wall clock by ~10 % — far above the effect being measured. Within
///   a round both phases reuse one sim (disks settled in between), so
///   the buffers, the caches and the allocator state are identical and
///   the ratio isolates span bookkeeping.
/// * **ABBA order within a round.** Even after a discarded warm-up
///   phase, later phases on a sim keep running measurably faster than
///   earlier ones, so a fixed off-then-on order charges that trend to
///   one side. Each round therefore measures four phases in ABBA order
///   (off-on-on-off, flipped on alternate rounds) and takes the ratio
///   of the summed sides: both sides occupy the same average position,
///   so any linear warm-up or throttle trend cancels within the round.
///
/// `scale` shrinks the op count for smoke runs.
pub fn compare_tracing(scale: f64) -> Vec<TraceComparison> {
    let ops_n = ((48.0 * scale).ceil() as u64).max(2);
    [TraceCase::WholeGroup, TraceCase::HybridPartial]
        .into_iter()
        .map(|case| {
            let mut off: Option<WallRun> = None;
            let mut on: Option<WallRun> = None;
            let mut spans: Vec<TraceSpan> = Vec::new();
            let mut rounds = Vec::new();
            for r in 0..15 {
                let (mut sim, file) = build_sim(case);
                // Discarded warm-up: the first measured phase on a fresh
                // sim pays page faults and cache warming (~20 % here),
                // which would otherwise land entirely on whichever side
                // runs first.
                let _ = measured_phase(&mut sim, case, file, false, ops_n);
                // ABBA: four phases, each side summed over positions
                // {1, 4} and {2, 3} (flipped on alternate rounds).
                let pattern: [bool; 4] =
                    if r % 2 == 0 { [false, true, true, false] } else { [true, false, false, true] };
                let (mut o_ns, mut n_ns) = (0u64, 0u64);
                for tracing in pattern {
                    let (w, s) = measured_phase(&mut sim, case, file, tracing, ops_n);
                    if tracing {
                        n_ns += w.wall_ns;
                        if on.as_ref().is_none_or(|b| w.wall_ns < b.wall_ns) {
                            on = Some(w);
                            spans = s;
                        }
                    } else {
                        o_ns += w.wall_ns;
                        if off.as_ref().is_none_or(|b| w.wall_ns < b.wall_ns) {
                            off = Some(w);
                        }
                    }
                }
                sim.set_metrics_enabled(false);
                rounds.push((n_ns as f64 / o_ns.max(1) as f64 - 1.0) * 100.0);
            }
            TraceComparison {
                case,
                off: off.expect("at least one round ran"),
                on: on.expect("at least one round ran"),
                round_overheads_pct: rounds,
                spans_on: spans.len() as u64,
                phase_counts: phase_counts(&spans),
            }
        })
        .collect()
}

/// A deterministic traced span batch for the Chrome exporter checks:
/// one tracing-on run of each shape, concatenated. Same seed, same
/// virtual clock ⇒ same spans on every call.
pub fn sample_traced_spans(scale: f64) -> Vec<TraceSpan> {
    let ops_n = ((8.0 * scale).ceil() as u64).max(2);
    let (_, mut spans) = run_wall_trace(TraceCase::WholeGroup, true, ops_n);
    let (_, partial) = run_wall_trace(TraceCase::HybridPartial, true, ops_n);
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

/// Count heap allocations per [`MetricsRegistry::record_trace`] on a
/// warm registry, with tracing `on` or off. Off is the request-path
/// default (a single relaxed load); on stamps the preallocated span
/// ring through a seqlock. Steady state must be zero either way.
pub fn trace_record_alloc_audit(ops: u64, on: bool) -> ObsAllocAudit {
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
    ObsAllocAudit { ops, warmup_allocs, steady_allocs }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Tracing only changes host-side bookkeeping: the simulated
    /// protocol and virtual timings are identical either way, and the
    /// traced side actually records the expected phases.
    #[test]
    fn tracing_mode_never_changes_virtual_time() {
        let _global = crate::global_registry_lock();
        for case in [TraceCase::WholeGroup, TraceCase::HybridPartial] {
            let (off, none) = run_wall_trace(case, false, 2);
            let (on, spans) = run_wall_trace(case, true, 2);
            assert_eq!(on.virt.duration_ns, off.virt.duration_ns, "virtual time diverged");
            assert_eq!(on.virt.bytes_written, off.virt.bytes_written, "byte accounting diverged");
            assert!(none.is_empty(), "tracing-off run must record no spans");
            for want in [Phase::Op, Phase::WireRtt, Phase::SrvQueue, Phase::Service] {
                assert!(
                    spans.iter().any(|s| s.phase == want),
                    "{}: no {} span recorded",
                    case.label(),
                    want.name()
                );
            }
        }
    }

    /// The exporter sample is deterministic (virtual clock + sim-owned
    /// trace IDs) and causally well-formed.
    #[test]
    fn sample_spans_are_deterministic_and_nest() {
        let _global = crate::global_registry_lock();
        let a = sample_traced_spans(0.05);
        let b = sample_traced_spans(0.05);
        assert_eq!(a, b, "sample must be bit-identical across calls");
        let report = crate::chrome_trace::validate_nesting(&a).expect("sample nests");
        assert!(report.trees > 0 && report.spans > 0);
    }
}
