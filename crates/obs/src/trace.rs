//! Causal tracing primitives: IDs, contexts, span records and trees.
//!
//! One client operation owns one [`TraceId`]. Every piece of timed work
//! done on the op's behalf — planning, queueing on the transport,
//! request round trips, server-side queue/lock/service time, parity
//! XOR, delivery back into the driver — is one [`TraceSpan`] tagged
//! with that trace ID and a parent [`SpanId`], so the flat span records
//! reassemble into one causal tree per op ([`build_trees`]).
//!
//! Propagation is by value: a [`TraceCtx`] (16 bytes, `Copy`) rides in
//! every [`csar-core` `ReqHeader`](https://docs.rs) and fits inside the
//! protocol's fixed 64-byte wire header, so enabling tracing does not
//! change simulated wire sizes. Servers never allocate IDs: their child
//! spans use [`derived_span`], a deterministic mix of the parent span
//! ID and the phase, which keeps simulator traces bit-identical across
//! replays. Client spans number themselves within their trace
//! ([`op_span`]); only trace IDs come from an allocator (the sim's own
//! counter, for the same reason).
//!
//! Timestamps are nanoseconds since an epoch chosen by the recorder:
//! the cluster start `Instant` on a live deployment (one shared epoch
//! for client and server threads, so spans from both sides nest on one
//! timeline), the virtual clock in the simulator (deterministic).

use csar_store::{FromJson, Json, JsonError, ToJson};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one traced client operation. Nonzero when allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace. `SpanId(0)`, the default, means
/// "no span" (and so "no parent").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no parent" sentinel.
    pub const NONE: SpanId = SpanId(0);
}

/// The trace context propagated on the wire: which trace a request
/// belongs to and which span its server-side children hang under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The owning operation's trace.
    pub trace: TraceId,
    /// Parent span for work done on behalf of this request.
    pub span: SpanId,
}

/// The phase taxonomy (DESIGN.md §15). Client-side phases are recorded
/// by the completion engine, server-side phases by the executor that
/// owns the server's clock (the node thread on a live cluster, the
/// virtual clock in the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Root span: one whole client operation (aux = bytes).
    Op,
    /// Driver planning (the `Begin` poll).
    Plan,
    /// Submission queue wait: enqueue → transmit.
    Submit,
    /// Head-of-line wait for a per-server window slot.
    WindowStall,
    /// One request attempt, transmit → reply receipt (aux = server).
    WireRtt,
    /// Server inbound-queue wait: arrival → dispatch (aux = server).
    SrvQueue,
    /// §5.1 parity-lock park: queued → woken by the unlock (aux = server).
    LockWait,
    /// Server service time, dispatch → reply produced (aux = server).
    Service,
    /// Client-side parity XOR / reconstruction compute (aux = bytes).
    Xor,
    /// Reply handed back into the driver (the completion poll).
    Deliver,
    /// An attempt that exhausted its deadline (aux = server). Children
    /// of the timed-out attempt never arrive; this span is the flight
    /// recorder's stall attribution.
    Timeout,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = Phase::ALL.len();
    /// Every phase, in slot order.
    pub const ALL: [Phase; 11] = [
        Phase::Op,
        Phase::Plan,
        Phase::Submit,
        Phase::WindowStall,
        Phase::WireRtt,
        Phase::SrvQueue,
        Phase::LockWait,
        Phase::Service,
        Phase::Xor,
        Phase::Deliver,
        Phase::Timeout,
    ];

    /// The stable wire/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Op => "op",
            Phase::Plan => "plan",
            Phase::Submit => "submit",
            Phase::WindowStall => "window_stall",
            Phase::WireRtt => "wire_rtt",
            Phase::SrvQueue => "srv_queue",
            Phase::LockWait => "lock_wait",
            Phase::Service => "service",
            Phase::Xor => "xor",
            Phase::Deliver => "deliver",
            Phase::Timeout => "timeout",
        }
    }

    /// Phase by its stable name.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// One flat causal span record: what the completion engine collects
/// per op, what rides piggybacked on replies, what the live flight
/// recorder and the simulator keep, and what the Chrome exporter
/// consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// The owning trace.
    pub trace: TraceId,
    /// This span's ID.
    pub span: SpanId,
    /// Parent span, [`SpanId::NONE`] for the op root.
    pub parent: SpanId,
    /// What kind of work the span covers.
    pub phase: Phase,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Phase-specific auxiliary value (server ID or bytes).
    pub aux: u64,
}

impl TraceSpan {
    /// Server `srv`'s `phase` span for the request attempt `cx` names,
    /// from `start_ns` to `end_ns`. Its ID is [`derived_span`]`(cx.span,
    /// phase)`, so servers need no ID allocator.
    pub fn server(cx: TraceCtx, phase: Phase, start_ns: u64, end_ns: u64, srv: u32) -> TraceSpan {
        TraceSpan {
            trace: cx.trace,
            span: derived_span(cx.span, phase),
            parent: cx.span,
            phase,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            aux: srv as u64,
        }
    }

    /// Exclusive end, saturating (a torn or clamped record can never
    /// place its start after its end — see `MetricsRegistry::reset`).
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh process-unique trace ID (live clusters; the
/// simulator allocates from its own counter for replay determinism).
pub fn next_trace_id() -> TraceId {
    TraceId(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
}

/// The `n`th client-side span of `trace` (`n` from 1): the trace ID in
/// the high bits, a per-op sequence number in the low 24. Span IDs thus
/// need no allocator of their own, stay unique wherever trace IDs are,
/// and keep the high bit clear for [`derived_span`].
pub fn op_span(trace: TraceId, n: u64) -> SpanId {
    SpanId(trace.0 << 24 | n)
}

/// Deterministically derive a child span ID from its parent and phase.
///
/// Servers (and any recorder without an ID allocator) use this: each
/// request attempt carries a unique parent span ID, and an attempt has
/// at most one child per server-side phase, so `(parent, phase)` is
/// unique within a trace. The SplitMix64 finalizer spreads the result
/// far away from the small sequential allocator IDs.
pub fn derived_span(parent: SpanId, phase: Phase) -> SpanId {
    let mut z = parent.0 ^ ((phase as u64 + 1) << 56) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    SpanId((z ^ (z >> 31)) | (1 << 63))
}

impl ToJson for TraceSpan {
    fn to_json(&self) -> Json {
        Json::obj([
            ("trace", Json::U64(self.trace.0)),
            ("span", Json::U64(self.span.0)),
            ("parent", Json::U64(self.parent.0)),
            ("phase", Json::from(self.phase.name())),
            ("start_ns", Json::U64(self.start_ns)),
            ("dur_ns", Json::U64(self.dur_ns)),
            ("aux", Json::U64(self.aux)),
        ])
    }
}

impl FromJson for TraceSpan {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let phase = j
            .field("phase")?
            .as_str()
            .and_then(Phase::from_name)
            .ok_or_else(|| JsonError("unknown trace phase".into()))?;
        Ok(TraceSpan {
            trace: TraceId(j.u64_field("trace")?),
            span: SpanId(j.u64_field("span")?),
            parent: SpanId(j.u64_field("parent")?),
            phase,
            start_ns: j.u64_field("start_ns")?,
            dur_ns: j.u64_field("dur_ns")?,
            aux: j.u64_field("aux")?,
        })
    }
}

/// One node of a reassembled causal tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// The span at this node.
    pub span: TraceSpan,
    /// Child spans, in start order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Total spans in this subtree (the node itself included).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(TraceNode::size).sum::<usize>()
    }

    /// Depth-first walk.
    pub fn walk(&self, f: &mut impl FnMut(&TraceNode)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

impl ToJson for TraceNode {
    fn to_json(&self) -> Json {
        let mut obj = match self.span.to_json() {
            Json::Obj(pairs) => pairs,
            _ => unreachable!("TraceSpan serializes to an object"),
        };
        obj.push(("children".to_string(), Json::Arr(self.children.iter().map(ToJson::to_json).collect())));
        Json::Obj(obj)
    }
}

/// Reassemble flat span records into causal trees, one per trace,
/// ordered by root start time. A span whose parent is absent from the
/// input (e.g. its attempt timed out before the piggyback arrived, or
/// the ring wrapped past it) becomes a root of its own partial tree —
/// nothing is dropped.
pub fn build_trees(spans: &[TraceSpan]) -> Vec<TraceNode> {
    use std::collections::HashMap;
    let present: HashMap<(TraceId, SpanId), usize> =
        spans.iter().enumerate().map(|(i, s)| ((s.trace, s.span), i)).collect();
    let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match (s.parent != SpanId::NONE)
            .then(|| present.get(&(s.trace, s.parent)))
            .flatten()
            // A self-parenting record (corrupt input) must not recurse.
            .filter(|&&p| p != i)
        {
            Some(&p) => children.entry(p).or_default().push(i),
            None => roots.push(i),
        }
    }
    fn assemble(i: usize, spans: &[TraceSpan], children: &HashMap<usize, Vec<usize>>) -> TraceNode {
        let mut kids: Vec<TraceNode> = children
            .get(&i)
            .map(|c| c.iter().map(|&k| assemble(k, spans, children)).collect())
            .unwrap_or_default();
        kids.sort_by_key(|n| (n.span.start_ns, n.span.span));
        TraceNode { span: spans[i], children: kids }
    }
    let mut trees: Vec<TraceNode> = roots.into_iter().map(|i| assemble(i, spans, &children)).collect();
    trees.sort_by_key(|n| (n.span.start_ns, n.span.trace, n.span.span));
    trees
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(trace: u64, span: u64, parent: u64, phase: Phase, start: u64, dur: u64) -> TraceSpan {
        TraceSpan {
            trace: TraceId(trace),
            span: SpanId(span),
            parent: SpanId(parent),
            phase,
            start_ns: start,
            dur_ns: dur,
            aux: 0,
        }
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert_ne!(a.0, 0);
        assert_ne!(op_span(a, 1), op_span(a, 2));
        assert_ne!(op_span(a, 1), op_span(b, 1));
        assert!(op_span(a, 1) != SpanId::NONE && op_span(a, 1).0 < 1 << 63);
    }

    #[test]
    fn derived_spans_are_stable_and_distinct_per_phase() {
        let p = SpanId(42);
        assert_eq!(derived_span(p, Phase::SrvQueue), derived_span(p, Phase::SrvQueue));
        assert_ne!(derived_span(p, Phase::SrvQueue), derived_span(p, Phase::Service));
        assert_ne!(derived_span(p, Phase::SrvQueue), derived_span(SpanId(43), Phase::SrvQueue));
        // High bit keeps derived IDs out of the sequential allocator's range.
        assert!(derived_span(p, Phase::LockWait).0 >= 1 << 63);
    }

    #[test]
    fn span_json_round_trips() {
        let s = TraceSpan {
            trace: TraceId(7),
            span: SpanId(9),
            parent: SpanId(3),
            phase: Phase::LockWait,
            start_ns: 1000,
            dur_ns: 250,
            aux: 4,
        };
        let j = s.to_json().to_pretty();
        let back = TraceSpan::from_json(&Json::parse(&j).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn trees_reassemble_with_siblings_in_start_order() {
        let spans = vec![
            sp(1, 1, 0, Phase::Op, 0, 100),
            sp(1, 3, 1, Phase::WireRtt, 20, 30), // second attempt
            sp(1, 2, 1, Phase::WireRtt, 5, 10),  // first attempt
            sp(1, 4, 2, Phase::Service, 8, 4),
            sp(2, 9, 0, Phase::Op, 50, 10),
        ];
        let trees = build_trees(&spans);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].span.trace, TraceId(1));
        assert_eq!(trees[0].size(), 4);
        // Both attempts are siblings under the root, earliest first.
        let kids: Vec<u64> = trees[0].children.iter().map(|c| c.span.span.0).collect();
        assert_eq!(kids, vec![2, 3]);
        assert_eq!(trees[0].children[0].children[0].span.phase, Phase::Service);
        assert_eq!(trees[1].span.trace, TraceId(2));
    }

    #[test]
    fn orphan_spans_become_partial_roots() {
        let spans = vec![sp(1, 5, 99, Phase::Service, 10, 5)];
        let trees = build_trees(&spans);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].span.span, SpanId(5));
    }

    #[test]
    fn end_ns_saturates() {
        let s = sp(1, 1, 0, Phase::Op, u64::MAX - 5, 100);
        assert_eq!(s.end_ns(), u64::MAX);
        assert!(s.start_ns <= s.end_ns());
    }
}
