//! Per-phase self time from program trace spans, and the benchmark's
//! own spans around its calls into each layer.

use csar_obs::trace::{Phase, SpanId, TraceSpan};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Self time summed per phase over a set of traced ops.
#[derive(Debug, Clone, Default)]
pub struct PhaseSelf {
    /// Nanoseconds, indexed by `Phase as usize`.
    pub self_ns: [u64; Phase::COUNT],
    /// Ops (trace roots) folded in.
    pub ops: u64,
}

impl PhaseSelf {
    /// Fold in spans; they may hold several traces. A span's self time
    /// is its duration minus the union of its children's intervals,
    /// clipped to the span.
    pub fn add(&mut self, spans: &[TraceSpan]) {
        let mut children: HashMap<(u64, SpanId), Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            if s.parent != SpanId::NONE {
                children
                    .entry((s.trace.0, s.parent))
                    .or_default()
                    .push((s.start_ns, s.start_ns + s.dur_ns));
            }
        }
        for s in spans {
            if s.phase == Phase::Op {
                self.ops += 1;
            }
            let (start, end) = (s.start_ns, s.start_ns + s.dur_ns);
            let covered = match children.get_mut(&(s.trace.0, s.span)) {
                Some(kids) => union_within(kids, start, end),
                None => 0,
            };
            self.self_ns[s.phase as usize] += s.dur_ns - covered;
        }
    }

    /// Mean self time of `phase` per op, µs.
    pub fn us_per_op(&self, phase: Phase) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.self_ns[phase as usize] as f64 / self.ops as f64 / 1e3
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// The benchmark's own spans: wall time of each call it makes into a
/// layer's public functions, summed per span name.
#[derive(Debug, Default)]
pub struct OwnSpans {
    sums: BTreeMap<&'static str, (u64, u64)>,
}

impl OwnSpans {
    /// Time `f` as one span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        let e = self.sums.entry(name).or_default();
        e.0 += 1;
        e.1 += ns;
        r
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.sums.get(name).map_or(0, |e| e.0)
    }

    /// Total duration of the spans named `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.sums.get(name).map_or(0, |e| e.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csar_obs::trace::TraceId;

    fn span(id: u64, parent: u64, phase: Phase, start: u64, dur: u64) -> TraceSpan {
        TraceSpan {
            trace: TraceId(1),
            span: SpanId(id),
            parent: SpanId(parent),
            phase,
            start_ns: start,
            dur_ns: dur,
            aux: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, Phase::Op, 0, 100),
            span(2, 1, Phase::WireRtt, 10, 50),
            span(3, 1, Phase::WireRtt, 40, 40),
            span(4, 2, Phase::Service, 20, 10),
            span(5, 1, Phase::Deliver, 95, 20),
        ];
        let mut p = PhaseSelf::default();
        p.add(&spans);
        assert_eq!(p.ops, 1);
        // Children cover [10,80) ∪ [95,100) = 75 of the op's 100.
        assert_eq!(p.self_ns[Phase::Op as usize], 25);
        assert_eq!(p.self_ns[Phase::WireRtt as usize], 40 + 40);
        assert_eq!(p.self_ns[Phase::Service as usize], 10);
        assert_eq!(p.self_ns[Phase::Deliver as usize], 20);
    }
}
