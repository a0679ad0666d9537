//! # csar-obs — first-party observability for the CSAR engines
//!
//! A hermetic, std-only metrics and tracing subsystem. Every metric
//! the running system records goes through one type,
//! [`MetricsRegistry`]:
//!
//! * **Counters** ([`Ctr`]) — monotonically increasing event counts,
//!   sharded across cache-line-padded atomic arrays so concurrent
//!   recorders (server threads, client ops, the cleaner) never contend
//!   on a line.
//! * **Gauges** ([`Gauge`]) — instantaneous levels (queue depth, parked
//!   lock waiters, requests in flight), one atomic each.
//! * **Histograms** ([`Hist`]) — log2-bucketed latency distributions
//!   with exact count and sum, so a snapshot can report p50/p99-ish
//!   bucket boundaries and the true mean.
//!
//! The hot path is a relaxed `enabled` load plus one `fetch_add`: no
//! locks, no branches into allocation, zero heap traffic steady-state —
//! the `no-alloc-request-path` lint stays satisfied with recording
//! compiled into the request path. Disabling a registry
//! ([`MetricsRegistry::set_enabled`]) turns every record call into the
//! bare load-and-return. The cost ledger (`BENCH_cost.json`) audits the
//! zero allocations exactly; the `obs_record` bench times one record.
//!
//! A registry freezes into a [`Snapshot`]: plain vectors of named
//! values that serialize to JSON (the `GetStats` protocol reply and the
//! `stats` binary's output) and [`Snapshot::merge`] across servers into
//! a cluster-wide view.
//!
//! Beside the aggregate metrics sits **causal tracing** (the [`trace`]
//! module): the span types, their IDs and tree assembly. A registry
//! holds no spans and no tracing flag. Each executor decides whether an
//! op is traced; the completion engine collects the op's spans, server
//! spans ride back on replies, and the executor keeps them (the live
//! cluster's flight recorder, the simulator's span buffer).

pub mod trace;

use csar_store::{FromJson, Json, JsonError, ToJson};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

// ---------------------------------------------------------------------------
// Metric identifiers
// ---------------------------------------------------------------------------

macro_rules! metric_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Number of variants (slot-array length).
            pub const COUNT: usize = [$($name::$variant,)+].len();
            /// Every variant, in slot order.
            pub const ALL: [$name; Self::COUNT] = [$($name::$variant,)+];

            /// The stable wire/snapshot name.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }
    };
}

metric_enum! {
    /// Monotonic event counters.
    Ctr {
        /// Requests a server accepted.
        SrvRequests => "srv_requests",
        /// Replies a server produced (== requests when nothing is parked).
        SrvReplies => "srv_replies",
        /// Bytes through the in-place data stream (reads + writes).
        SrvDataBytes => "srv_data_bytes",
        /// Bytes through the mirror stream.
        SrvMirrorBytes => "srv_mirror_bytes",
        /// Bytes through the parity stream.
        SrvParityBytes => "srv_parity_bytes",
        /// Bytes through the overflow log stream.
        SrvOverflowBytes => "srv_overflow_bytes",
        /// `ReadLatest` spans that found at least one live overflow run.
        SrvOverflowHits => "srv_overflow_hits",
        /// `ReadLatest` spans served entirely from in-place data.
        SrvOverflowMisses => "srv_overflow_misses",
        /// Parity-lock grants (§5.1).
        SrvLockAcquisitions => "srv_lock_acquisitions",
        /// Parity-lock requests that had to queue behind a holder.
        SrvLockContended => "srv_lock_contended",
        /// Conditional overflow invalidations declined because the
        /// table's generation advanced (a writer raced the cleaner).
        SrvInvalidationsDeferred => "srv_invalidations_deferred",
        /// Requests a live server served on the thread of the client op
        /// that queued them, not on its worker's own thread.
        SrvServedInline => "srv_served_inline",
        /// Whole parity groups written by the write planner.
        WrWholeGroups => "wr_whole_groups",
        /// Partial groups that took the RAID5 read-modify-write.
        WrRmwGroups => "wr_rmw_groups",
        /// Partial groups appended to the Hybrid overflow logs.
        WrOverflowPartials => "wr_overflow_partials",
        /// Spans reconstructed from redundancy during degraded reads.
        RdDegradedRecons => "rd_degraded_recons",
        /// Requests the transport engine transmitted (retries included).
        EngIssued => "eng_issued",
        /// Replies delivered to a live in-flight request.
        EngDelivered => "eng_delivered",
        /// Transmissions abandoned because the engine retried them.
        EngRetriedAbandoned => "eng_retried_abandoned",
        /// Transmissions that exhausted the deadline with no retry left.
        EngTimeouts => "eng_timeouts",
        /// Transmissions still in flight when their op finished (the op
        /// failed for another reason first).
        EngAbandoned => "eng_abandoned",
        /// Times an op had to wait for a per-server window slot.
        EngWindowStalls => "eng_window_stalls",
        /// Round trips a client made to the metadata manager (create,
        /// open, list, remove and EOF-extending writes).
        MgrRequests => "mgr_requests",
        /// Parity groups the cleaner examined for live overflow.
        CleanerGroupsScanned => "cleaner_groups_scanned",
        /// Parity groups the cleaner actually rewrote in place.
        CleanerGroupsRewritten => "cleaner_groups_rewritten",
        /// Rewritten groups whose overflow reclaim was deferred to the
        /// next pass because a writer raced the rewrite.
        CleanerGroupsDeferred => "cleaner_groups_deferred",
        /// Overflow bytes returned to RAID5-level storage.
        CleanerBytesReclaimed => "cleaner_bytes_reclaimed",
        /// Completed cleaning passes.
        CleanerPasses => "cleaner_passes",
        /// Parity groups the scrubber verified.
        ScrubGroupsChecked => "scrub_groups_checked",
        /// Mirror blocks the scrubber verified.
        ScrubMirrorsChecked => "scrub_mirrors_checked",
        /// Verified parity groups whose parity did not match the data.
        ScrubBadGroups => "scrub_bad_groups",
        /// Verified mirror blocks that did not match their primary.
        ScrubBadMirrors => "scrub_bad_mirrors",
    }
}

metric_enum! {
    /// Instantaneous levels.
    Gauge {
        /// Requests queued on a server's inbound channel (including the
        /// one being served).
        SrvQueueDepth => "srv_queue_depth",
        /// Lock requests parked behind a parity-lock holder.
        SrvParkedWaiters => "srv_parked_waiters",
        /// Requests currently in flight from a client engine.
        EngInFlight => "eng_in_flight",
    }
}

metric_enum! {
    /// Log2-bucketed latency distributions (values in nanoseconds).
    Hist {
        /// Whole client write operations, from the API call to its
        /// return (an EOF-extending write's manager round trip included).
        OpWriteNs => "op_write_ns",
        /// Whole client read operations, from the API call to its return.
        OpReadNs => "op_read_ns",
        /// §5.1 parity lock-read round trips (lock wait + parity read).
        LockWaitNs => "lock_wait_ns",
        /// Per-request round trips, all request classes.
        ReqRttNs => "req_rtt_ns",
        /// Time ops spent stalled on a full per-server window.
        WindowStallNs => "window_stall_ns",
        /// One group rewritten by the §6.7 cleaner.
        CleanerGroupNs => "cleaner_group_ns",
        /// One scrub pass.
        ScrubNs => "scrub_ns",
    }
}

// ---------------------------------------------------------------------------
// Registry internals
// ---------------------------------------------------------------------------

/// Counter shards: power of two, picked per thread.
const SHARDS: usize = 8;
/// Histogram buckets: bucket `i` holds values with `floor(log2(v)) + 1
/// == i` (bucket 0 is exactly zero), so bucket `i` spans
/// `[2^(i-1), 2^i)`.
const HIST_BUCKETS: usize = 64;

#[repr(align(64))]
struct Shard {
    counters: [AtomicU64; Ctr::COUNT],
}

struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// The sharded, lock-free metrics registry.
///
/// One instance lives in every `IoServer` and one on each executor's
/// client side (the live cluster's transport, each simulator), which
/// also takes the counters the handle-free client drivers emit. All
/// recording is wait-free; `snapshot` is the only operation that
/// allocates.
pub struct MetricsRegistry {
    enabled: AtomicBool,
    shards: Box<[Shard]>,
    gauges: [AtomicU64; Gauge::COUNT],
    hists: Box<[HistCell]>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.enabled())
            .field("srv_requests", &self.counter(Ctr::SrvRequests))
            .field("eng_issued", &self.counter(Ctr::EngIssued))
            .finish_non_exhaustive()
    }
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn shard_index() -> usize {
    MY_SHARD.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
            c.set(v);
        }
        v & (SHARDS - 1)
    })
}

impl MetricsRegistry {
    /// A fresh, enabled registry with all metrics at zero.
    pub fn new() -> Self {
        fn zeroed<const N: usize>() -> [AtomicU64; N] {
            std::array::from_fn(|_| AtomicU64::new(0))
        }
        MetricsRegistry {
            enabled: AtomicBool::new(true),
            shards: (0..SHARDS).map(|_| Shard { counters: zeroed() }).collect(),
            gauges: zeroed(),
            hists: (0..Hist::COUNT)
                .map(|_| HistCell { count: AtomicU64::new(0), sum: AtomicU64::new(0), buckets: zeroed() })
                .collect(),
        }
    }

    /// Turn recording on or off. Off turns every record call into a
    /// single relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn inc(&self, c: Ctr) {
        self.add(c, 1);
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        if !self.enabled() {
            return;
        }
        self.shards[shard_index()].counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current counter value (summed over shards).
    pub fn counter(&self, c: Ctr) -> u64 {
        self.shards.iter().map(|s| s.counters[c as usize].load(Ordering::Relaxed)).sum()
    }

    /// Set a gauge to an absolute level.
    #[inline]
    pub fn gauge_set(&self, g: Gauge, v: u64) {
        if !self.enabled() {
            return;
        }
        self.gauges[g as usize].store(v, Ordering::Relaxed);
    }

    /// Raise a gauge by `n`.
    #[inline]
    pub fn gauge_add(&self, g: Gauge, n: u64) {
        if !self.enabled() {
            return;
        }
        self.gauges[g as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Lower a gauge by `n` (saturating at zero).
    #[inline]
    pub fn gauge_sub(&self, g: Gauge, n: u64) {
        if !self.enabled() {
            return;
        }
        let cell = &self.gauges[g as usize];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current gauge level.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, h: Hist, v: u64) {
        if !self.enabled() {
            return;
        }
        let cell = &self.hists[h as usize];
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(v, Ordering::Relaxed);
        cell.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Reset every metric to zero. Gauges too: callers re-establish
    /// levels on their next transition. Not atomic with respect to
    /// concurrent recorders or a concurrent [`Self::snapshot`].
    pub fn reset(&self) {
        for s in self.shards.iter() {
            for c in &s.counters {
                c.store(0, Ordering::Relaxed);
            }
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
        for h in self.hists.iter() {
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Freeze the registry's current state into a snapshot. The only
    /// allocating operation on the type; never called on the request
    /// path.
    pub fn snapshot(&self) -> Snapshot {
        let counters = Ctr::ALL
            .into_iter()
            .map(|c| (c.name().to_string(), self.counter(c)))
            .filter(|(_, v)| *v > 0)
            .collect();
        let gauges = Gauge::ALL
            .into_iter()
            .map(|g| (g.name().to_string(), self.gauge(g)))
            .filter(|(_, v)| *v > 0)
            .collect();
        let hists = Hist::ALL
            .into_iter()
            .filter_map(|h| {
                let cell = &self.hists[h as usize];
                let count = cell.count.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                let buckets = cell
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((i as u32, n))
                    })
                    .collect();
                Some(HistSnapshot {
                    name: h.name().to_string(),
                    count,
                    sum: cell.sum.load(Ordering::Relaxed),
                    buckets,
                })
            })
            .collect();
        Snapshot { counters, gauges, hists }
    }
}

#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        // Clamp: the top bucket absorbs everything >= 2^62.
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// One frozen histogram: exact count/sum plus the non-empty log2
/// buckets as `(bucket index, count)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// The [`Hist`] name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Sparse `(bucket, count)`; bucket `i > 0` spans `[2^(i-1), 2^i)`.
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    /// Mean observed value.
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64
    }

    /// Upper bound of the highest non-empty bucket (a p100-ish figure).
    pub fn max_bucket_bound(&self) -> u64 {
        match self.buckets.last() {
            Some(&(0, _)) | None => 0,
            Some(&(i, _)) => 1u64 << i.min(63),
        }
    }
}

/// A frozen, mergeable, JSON-serializable view of a registry — what
/// `GetStats` returns and the `stats` binary prints.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every non-zero counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every non-zero gauge.
    pub gauges: Vec<(String, u64)>,
    /// Every histogram with at least one observation.
    pub hists: Vec<HistSnapshot>,
}

impl Snapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// Gauge level by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// Histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Fold `other` into `self`: counters and gauges add, histograms
    /// add bucket-wise.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for h in &other.hists {
            match self.hists.iter_mut().find(|mine| mine.name == h.name) {
                Some(mine) => {
                    mine.count += h.count;
                    mine.sum += h.sum;
                    for &(b, n) in &h.buckets {
                        match mine.buckets.iter_mut().find(|(mb, _)| *mb == b) {
                            Some((_, mn)) => *mn += n,
                            None => mine.buckets.push((b, n)),
                        }
                    }
                    mine.buckets.sort_by_key(|&(b, _)| b);
                }
                None => self.hists.push(h.clone()),
            }
        }
    }

    /// The engine-side balance invariant: every transmitted request
    /// must end in exactly one of delivered, retried-abandoned,
    /// timed-out, or abandoned-at-finish.
    pub fn engine_balanced(&self) -> bool {
        self.counter(Ctr::EngIssued.name())
            == self.counter(Ctr::EngDelivered.name())
                + self.counter(Ctr::EngRetriedAbandoned.name())
                + self.counter(Ctr::EngTimeouts.name())
                + self.counter(Ctr::EngAbandoned.name())
    }
}

fn pairs_to_json(pairs: &[(String, u64)]) -> Json {
    Json::Obj(pairs.iter().map(|(n, v)| (n.clone(), Json::U64(*v))).collect())
}

fn pairs_from_json(j: &Json, what: &str) -> Result<Vec<(String, u64)>, JsonError> {
    j.as_object()
        .ok_or_else(|| JsonError(format!("{what} must be an object")))?
        .iter()
        .map(|(n, v)| {
            let v = v.as_u64().ok_or_else(|| JsonError(format!("{what}.{n} is not a u64")))?;
            Ok((n.clone(), v))
        })
        .collect()
}

impl ToJson for Snapshot {
    fn to_json(&self) -> Json {
        let hists = Json::Arr(
            self.hists
                .iter()
                .map(|h| {
                    Json::obj([
                        ("name", Json::from(h.name.as_str())),
                        ("count", Json::U64(h.count)),
                        ("sum", Json::U64(h.sum)),
                        (
                            "buckets",
                            Json::Arr(
                                h.buckets
                                    .iter()
                                    .map(|&(b, n)| Json::Arr(vec![Json::U64(b as u64), Json::U64(n)]))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("counters", pairs_to_json(&self.counters)),
            ("gauges", pairs_to_json(&self.gauges)),
            ("hists", hists),
        ])
    }
}

impl FromJson for Snapshot {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let counters = pairs_from_json(j.field("counters")?, "counters")?;
        let gauges = pairs_from_json(j.field("gauges")?, "gauges")?;
        let hists = j
            .field("hists")?
            .as_array()
            .ok_or_else(|| JsonError("hists must be an array".into()))?
            .iter()
            .map(|h| {
                let name = h
                    .field("name")?
                    .as_str()
                    .ok_or_else(|| JsonError("hist name must be a string".into()))?
                    .to_string();
                let buckets = h
                    .field("buckets")?
                    .as_array()
                    .ok_or_else(|| JsonError("hist buckets must be an array".into()))?
                    .iter()
                    .map(|b| {
                        let bucket = b
                            .at(0)
                            .as_u64()
                            .ok_or_else(|| JsonError("bucket index must be a u64".into()))?;
                        let n = b
                            .at(1)
                            .as_u64()
                            .ok_or_else(|| JsonError("bucket count must be a u64".into()))?;
                        Ok((bucket as u32, n))
                    })
                    .collect::<Result<_, JsonError>>()?;
                Ok(HistSnapshot { name, count: h.u64_field("count")?, sum: h.u64_field("sum")?, buckets })
            })
            .collect::<Result<_, JsonError>>()?;
        Ok(Snapshot { counters, gauges, hists })
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        reg.inc(Ctr::SrvRequests);
                        reg.add(Ctr::SrvDataBytes, 3);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter(Ctr::SrvRequests), 4000);
        assert_eq!(reg.counter(Ctr::SrvDataBytes), 12000);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(false);
        reg.inc(Ctr::SrvRequests);
        reg.gauge_add(Gauge::EngInFlight, 5);
        reg.observe(Hist::OpWriteNs, 100);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.hists.is_empty());
        reg.set_enabled(true);
        reg.inc(Ctr::SrvRequests);
        assert_eq!(reg.counter(Ctr::SrvRequests), 1);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1); // clamped into the top bucket
        let reg = MetricsRegistry::new();
        for v in [0, 1, 3, 1000, 1_000_000] {
            reg.observe(Hist::OpReadNs, v);
        }
        let snap = reg.snapshot();
        let h = snap.hist("op_read_ns").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1_001_004);
        assert_eq!(h.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 5);
        assert!((h.mean() - 200_200.8).abs() < 1e-6);
    }

    #[test]
    fn gauge_sub_saturates() {
        let reg = MetricsRegistry::new();
        reg.gauge_add(Gauge::SrvQueueDepth, 2);
        reg.gauge_sub(Gauge::SrvQueueDepth, 5);
        assert_eq!(reg.gauge(Gauge::SrvQueueDepth), 0);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let reg = MetricsRegistry::new();
        reg.inc(Ctr::SrvRequests);
        reg.add(Ctr::EngIssued, 7);
        reg.gauge_set(Gauge::EngInFlight, 3);
        reg.observe(Hist::LockWaitNs, 12345);
        reg.observe(Hist::LockWaitNs, 99);
        reg.observe(Hist::CleanerGroupNs, 42);
        let snap = reg.snapshot();
        let body = snap.to_json().to_pretty();
        let back = Snapshot::from_json(&Json::parse(&body).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.add(Ctr::SrvRequests, 2);
        b.add(Ctr::SrvRequests, 3);
        b.add(Ctr::SrvReplies, 1);
        a.observe(Hist::ReqRttNs, 100);
        b.observe(Hist::ReqRttNs, 100);
        b.observe(Hist::ReqRttNs, 1_000_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("srv_requests"), 5);
        assert_eq!(m.counter("srv_replies"), 1);
        let h = m.hist("req_rtt_ns").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1_000_200);
    }

    #[test]
    fn engine_balance_helper() {
        let reg = MetricsRegistry::new();
        reg.add(Ctr::EngIssued, 10);
        reg.add(Ctr::EngDelivered, 7);
        reg.add(Ctr::EngRetriedAbandoned, 2);
        reg.add(Ctr::EngTimeouts, 1);
        assert!(reg.snapshot().engine_balanced());
        reg.inc(Ctr::EngIssued);
        assert!(!reg.snapshot().engine_balanced());
    }

    #[test]
    fn reset_clears_everything() {
        let reg = MetricsRegistry::new();
        reg.inc(Ctr::SrvRequests);
        reg.gauge_add(Gauge::SrvQueueDepth, 4);
        reg.observe(Hist::OpWriteNs, 10);
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap, Snapshot::default());
    }
}
