//! The CSAR I/O server engine.
//!
//! One instance per I/O node. Like a PVFS iod it is stateless about file
//! *metadata* (every request carries the layout) but owns the local
//! files: data, mirror, parity, and the Hybrid overflow logs plus their
//! tables. The engine is a pure state machine — [`IoServer::handle`] maps
//! an incoming request to a list of [`Effect`]s — so the same code runs
//! under the live threaded cluster and under the discrete-event
//! simulator. Each reply carries the [`DiskCost`] the request incurred
//! against the server's page-cache model; the simulator turns that into
//! time, the live cluster into statistics.

use crate::error::CsarError;
use crate::layout::Span;
use crate::locks::{Acquire, ParityLockTable};
use crate::overflow::OverflowTable;
use crate::proto::{ClientId, DiskCost, ReqHeader, Request, Response, ServerId};
use csar_obs::trace::{Phase, TraceCtx, TraceSpan};
use csar_obs::{Ctr, Gauge, MetricsRegistry};
use csar_store::{
    CacheModel, FromJson, Json, JsonError, LocalStore, Payload, StoreImage, StreamKind, ToJson,
};
use std::collections::HashMap;

/// A serializable snapshot of one I/O server's durable state: local
/// files, overflow tables and slot maps. Volatile state (page cache,
/// parity locks, statistics) starts cold on import, exactly as after a
/// server restart.
#[derive(Debug, Clone)]
pub struct ServerImage {
    /// The server this image was taken from.
    pub id: ServerId,
    /// Durable store contents (data/redundancy/overflow files).
    pub store: StoreImage,
    /// Per-file primary overflow tables, as `(fh, entries)`.
    pub overflow: Vec<(u64, Vec<crate::overflow::OverflowEntry>)>,
    /// Per-file overflow-mirror tables, as `(fh, entries)`.
    pub overflow_mirror: Vec<(u64, Vec<crate::overflow::OverflowEntry>)>,
    /// Overflow slot map rows: `(fh, mirror, stripe block, slot offset)`.
    pub overflow_slots: Vec<(u64, bool, u64, u64)>,
}

impl ToJson for ServerImage {
    fn to_json(&self) -> Json {
        let tables = |t: &[(u64, Vec<crate::overflow::OverflowEntry>)]| {
            Json::Arr(
                t.iter()
                    .map(|(fh, entries)| {
                        Json::Arr(vec![
                            Json::from(*fh),
                            Json::Arr(entries.iter().map(ToJson::to_json).collect()),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj([
            ("id", Json::from(self.id)),
            ("store", self.store.to_json()),
            ("overflow", tables(&self.overflow)),
            ("overflow_mirror", tables(&self.overflow_mirror)),
            (
                "overflow_slots",
                Json::Arr(
                    self.overflow_slots
                        .iter()
                        .map(|(fh, mirror, block, off)| {
                            Json::Arr(vec![
                                Json::from(*fh),
                                Json::from(*mirror),
                                Json::from(*block),
                                Json::from(*off),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for ServerImage {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let tables = |j: &Json| -> Result<Vec<(u64, Vec<crate::overflow::OverflowEntry>)>, JsonError> {
            j.as_array()
                .ok_or_else(|| JsonError("overflow tables must be an array".into()))?
                .iter()
                .map(|pair| {
                    let fh = pair
                        .at(0)
                        .as_u64()
                        .ok_or_else(|| JsonError("overflow table fh must be u64".into()))?;
                    let entries = pair
                        .at(1)
                        .as_array()
                        .ok_or_else(|| JsonError("overflow entries must be an array".into()))?
                        .iter()
                        .map(crate::overflow::OverflowEntry::from_json)
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok((fh, entries))
                })
                .collect()
        };
        let slots = j
            .field("overflow_slots")?
            .as_array()
            .ok_or_else(|| JsonError("overflow_slots must be an array".into()))?
            .iter()
            .map(|s| {
                let num = |i: usize| {
                    s.at(i).as_u64().ok_or_else(|| JsonError("slot fields must be u64".into()))
                };
                let mirror = s
                    .at(1)
                    .as_bool()
                    .ok_or_else(|| JsonError("slot mirror flag must be a bool".into()))?;
                Ok::<_, JsonError>((num(0)?, mirror, num(2)?, num(3)?))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServerImage {
            id: j.u64_field("id")? as ServerId,
            store: StoreImage::from_json(j.field("store")?)?,
            overflow: tables(j.field("overflow")?)?,
            overflow_mirror: tables(j.field("overflow_mirror")?)?,
            overflow_slots: slots,
        })
    }
}

/// Tuning knobs of one I/O server.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Local file-system block size (the paper's testbeds: 4 KB).
    pub fs_block: u64,
    /// Page-cache capacity in bytes.
    pub cache_bytes: u64,
    /// §5.2 write buffering: accumulate network data into aligned blocks.
    /// When off, every uncached block a write touches is at risk of a
    /// partial-block pre-read (the non-blocking-receive pathology).
    pub write_buffering: bool,
    /// The paper's diagnostic variant: pad partial block writes so no
    /// pre-read ever happens ("we artificially padded all partial block
    /// writes at the I/O servers so that only full blocks were written").
    pub pad_partial_blocks: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            fs_block: 4096,
            cache_bytes: 768 << 20,
            write_buffering: true,
            pad_partial_blocks: false,
        }
    }
}

/// Cumulative statistics of one server.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Requests received.
    pub requests: u64,
    /// Replies sent (includes lock-deferred wake-ups).
    pub replies: u64,
    /// Parity reads parked behind a held lock (§5.1 contention).
    pub parked: u64,
    /// Payload bytes stored across all streams.
    pub bytes_stored: u64,
    /// Accumulated disk/cache activity.
    pub disk: DiskCost,
}

/// A parked (lock-deferred) parity read.
#[derive(Debug)]
struct Parked {
    from: ClientId,
    req_id: u64,
    hdr: ReqHeader,
    group: u64,
    intra: u64,
    len: u64,
    /// Executor timestamp ([`IoServer::handle_at`]'s `now_ns`) at park
    /// time — the start of the waiter's §5.1 lock-wait trace span.
    parked_at_ns: u64,
}

/// Output of [`IoServer::handle`].
#[derive(Debug)]
pub enum Effect {
    /// Send `resp` to client `to`, answering its request `req_id`.
    /// `cost` is the disk/cache activity performing it required.
    Reply {
        /// Destination client.
        to: ClientId,
        /// The client request being answered.
        req_id: u64,
        /// The response body.
        resp: Response,
        /// Disk/cache activity performing the request required.
        cost: DiskCost,
        /// Trace context of the request this reply answers (a woken
        /// §5.1 waiter's reply carries the *waiter's* context, not the
        /// unlocking writer's), so the executor can attribute its
        /// queue/service spans without tracking request identity.
        trace: Option<TraceCtx>,
        /// For a woken §5.1 waiter: the lock-wait span (park → grant,
        /// on the executor's clock). `Copy`, so the hot path carries it
        /// without allocating.
        lock_wait: Option<TraceSpan>,
    },
}

/// One CSAR I/O server.
#[derive(Debug)]
pub struct IoServer {
    /// This server's identity in the cluster.
    pub id: ServerId,
    /// Server configuration.
    pub cfg: ServerConfig,
    store: LocalStore,
    cache: CacheModel,
    locks: ParityLockTable<Parked>,
    /// Per-file primary overflow tables.
    overflow: HashMap<u64, OverflowTable>,
    /// Per-file mirror overflow tables (entries for the previous server's
    /// blocks).
    overflow_mirror: HashMap<u64, OverflowTable>,
    /// Overflow slot map: `(fh, mirror, stripe block) → slot offset` in
    /// the overflow log. Overflow space is allocated in whole
    /// stripe-unit blocks ("the updated *blocks* are written to an
    /// overflow region"); re-updates of the same block reuse its slot.
    /// The unit-granular allocation is what makes the Hybrid scheme's
    /// storage exceed RAID1 for small-request workloads with a large
    /// stripe unit (paper Table 2, FLASH at 64 KB).
    overflow_slots: HashMap<(u64, bool, u64), u64>,
    /// Cumulative statistics.
    pub stats: ServerStats,
    /// Per-server metrics registry; `GetStats` freezes it into the
    /// [`csar_obs::Snapshot`] any client can scrape.
    pub obs: MetricsRegistry,
}

impl IoServer {
    /// A fresh server.
    pub fn new(id: ServerId, cfg: ServerConfig) -> Self {
        Self {
            id,
            cfg,
            store: LocalStore::new(),
            cache: CacheModel::new(cfg.fs_block, cfg.cache_bytes),
            locks: ParityLockTable::new(),
            overflow: HashMap::new(),
            overflow_mirror: HashMap::new(),
            overflow_slots: HashMap::new(),
            stats: ServerStats::default(),
            obs: MetricsRegistry::new(),
        }
    }

    /// Borrow the local store (accounting, tests).
    pub fn store(&self) -> &LocalStore {
        &self.store
    }

    /// Borrow the cache model (tests).
    pub fn cache(&self) -> &CacheModel {
        &self.cache
    }

    /// Lock-table contention counters (Fig. 3 / Fig. 6a analysis).
    pub fn lock_contention(&self) -> (u64, u64) {
        (self.locks.contended, self.locks.acquisitions)
    }

    /// Live overflow bytes for a file (primary table).
    pub fn overflow_live_bytes(&self, fh: u64) -> u64 {
        self.overflow.get(&fh).map(OverflowTable::live_bytes).unwrap_or(0)
    }

    /// Snapshot the server's durable state.
    pub fn export(&self) -> ServerImage {
        let dump_tables = |tables: &HashMap<u64, OverflowTable>| {
            let mut v: Vec<(u64, Vec<crate::overflow::OverflowEntry>)> =
                tables.iter().map(|(fh, t)| (*fh, t.dump())).collect();
            v.sort_by_key(|(fh, _)| *fh);
            v
        };
        let mut slots: Vec<(u64, bool, u64, u64)> = self
            .overflow_slots
            .iter()
            .map(|((fh, m, b), off)| (*fh, *m, *b, *off))
            .collect();
        slots.sort_unstable();
        ServerImage {
            id: self.id,
            store: self.store.export(),
            overflow: dump_tables(&self.overflow),
            overflow_mirror: dump_tables(&self.overflow_mirror),
            overflow_slots: slots,
        }
    }

    /// Rebuild a server from a snapshot (cold cache, no held locks).
    pub fn import(image: ServerImage, cfg: ServerConfig) -> Self {
        let load_tables = |dumps: Vec<(u64, Vec<crate::overflow::OverflowEntry>)>| {
            let mut map: HashMap<u64, OverflowTable> = HashMap::new();
            for (fh, entries) in dumps {
                let t = map.entry(fh).or_default();
                for e in entries {
                    t.insert(e.logical_off, e.len, e.file_off);
                }
            }
            map
        };
        let mut server = IoServer::new(image.id, cfg);
        server.store = LocalStore::import(image.store);
        server.overflow = load_tables(image.overflow);
        server.overflow_mirror = load_tables(image.overflow_mirror);
        server.overflow_slots = image
            .overflow_slots
            .into_iter()
            .map(|(fh, m, b, off)| ((fh, m, b), off))
            .collect();
        server
    }

    /// Handle one request, producing zero or more effects.
    ///
    /// Zero effects means the request was parked on a parity lock; a
    /// later `ParityWriteUnlock` will produce its reply.
    ///
    /// Clock-free convenience for tests and callers that do not trace:
    /// equivalent to [`Self::handle_at`] with `now_ns == 0`.
    pub fn handle(&mut self, from: ClientId, req_id: u64, req: Request) -> Vec<Effect> {
        self.handle_at(from, req_id, req, 0)
    }

    /// Handle one request at executor time `now_ns` (nanoseconds since
    /// the executor's trace epoch: the cluster start on a live
    /// deployment, the virtual clock in the simulator). The engine is
    /// clock-free; `now_ns` exists solely so §5.1 lock-wait trace spans
    /// (park → grant) get timestamps coherent with the caller's other
    /// spans.
    pub fn handle_at(
        &mut self,
        from: ClientId,
        req_id: u64,
        req: Request,
        now_ns: u64,
    ) -> Vec<Effect> {
        self.stats.requests += 1;
        self.obs.inc(Ctr::SrvRequests);
        let ctx = req.trace_ctx();
        let mut effects = Vec::with_capacity(1);
        match self.dispatch(from, req_id, req, now_ns, &mut effects) {
            Ok(()) => {}
            Err(e) => effects.push(self.reply(from, req_id, Response::Err(e), DiskCost::default())),
        }
        // Stamp the dispatched request's context onto its own reply;
        // woken-waiter replies were stamped with theirs at wake time.
        for e in &mut effects {
            let Effect::Reply { to, req_id: rid, trace, .. } = e;
            if *to == from && *rid == req_id && trace.is_none() {
                *trace = ctx;
            }
        }
        effects
    }

    fn reply(&mut self, to: ClientId, req_id: u64, resp: Response, cost: DiskCost) -> Effect {
        self.stats.replies += 1;
        self.obs.inc(Ctr::SrvReplies);
        self.stats.disk.merge(&cost);
        Effect::Reply { to, req_id, resp, cost, trace: None, lock_wait: None }
    }

    fn dispatch(
        &mut self,
        from: ClientId,
        req_id: u64,
        req: Request,
        now_ns: u64,
        effects: &mut Vec<Effect>,
    ) -> Result<(), CsarError> {
        match req {
            Request::WriteData { hdr, spans, invalidate_primary, invalidate_mirror_spans } => {
                let mut cost = DiskCost::default();
                let mut bytes = 0;
                for (span, payload) in spans {
                    let (local, len) = self.map_data_span(&hdr, span)?;
                    if payload.len() != len {
                        return Err(CsarError::Protocol(format!(
                            "payload {} bytes for span of {}",
                            payload.len(),
                            len
                        )));
                    }
                    cost.merge(&self.classify_write(hdr.fh, StreamKind::Data, local, len));
                    self.store.write(hdr.fh, StreamKind::Data, local, payload);
                    bytes += len;
                    if invalidate_primary {
                        self.overflow
                            .entry(hdr.fh)
                            .or_default()
                            .invalidate(span.logical_off, span.len);
                    }
                }
                for span in invalidate_mirror_spans {
                    self.overflow_mirror
                        .entry(hdr.fh)
                        .or_default()
                        .invalidate(span.logical_off, span.len);
                }
                self.stats.bytes_stored += bytes;
                self.obs.add(Ctr::SrvDataBytes, bytes);
                effects.push(self.reply(from, req_id, Response::Done { bytes }, cost));
            }

            Request::WriteMirror { hdr, spans } => {
                let mut cost = DiskCost::default();
                let mut bytes = 0;
                for (span, payload) in spans {
                    let (local, len) = self.map_mirror_span(&hdr, span)?;
                    if payload.len() != len {
                        return Err(CsarError::Protocol("mirror payload length mismatch".into()));
                    }
                    cost.merge(&self.classify_write(hdr.fh, StreamKind::Mirror, local, len));
                    self.store.write(hdr.fh, StreamKind::Mirror, local, payload);
                    bytes += len;
                }
                self.stats.bytes_stored += bytes;
                self.obs.add(Ctr::SrvMirrorBytes, bytes);
                effects.push(self.reply(from, req_id, Response::Done { bytes }, cost));
            }

            Request::WriteParity { hdr, parts, invalidate_mirror_spans } => {
                let mut cost = DiskCost::default();
                let mut bytes = 0;
                for part in parts {
                    let local = self.map_parity(&hdr, part.group, part.intra)?;
                    let len = part.payload.len();
                    cost.merge(&self.classify_write(hdr.fh, StreamKind::Parity, local, len));
                    self.store.write(hdr.fh, StreamKind::Parity, local, part.payload);
                    bytes += len;
                }
                for span in invalidate_mirror_spans {
                    self.overflow_mirror
                        .entry(hdr.fh)
                        .or_default()
                        .invalidate(span.logical_off, span.len);
                }
                self.stats.bytes_stored += bytes;
                self.obs.add(Ctr::SrvParityBytes, bytes);
                effects.push(self.reply(from, req_id, Response::Done { bytes }, cost));
            }

            Request::ParityRead { hdr, group, intra, len } => {
                let (resp, cost) = self.do_parity_read(&hdr, group, intra, len)?;
                effects.push(self.reply(from, req_id, resp, cost));
            }

            Request::ParityReadLock { hdr, group, intra, len } => {
                // §5.1: acquire (or queue on) the parity lock, then serve
                // the read. Queued requests produce no effect now.
                self.map_parity(&hdr, group, intra)?; // validate before parking
                let parked = Parked { from, req_id, hdr, group, intra, len, parked_at_ns: now_ns };
                self.obs.inc(Ctr::SrvLockAcquisitions);
                match self.locks.acquire((hdr.fh, group), parked) {
                    Acquire::Granted => {
                        let (resp, cost) = self.do_parity_read(&hdr, group, intra, len)?;
                        effects.push(self.reply(from, req_id, resp, cost));
                    }
                    Acquire::Queued => {
                        self.stats.parked += 1;
                        self.obs.inc(Ctr::SrvLockContended);
                        self.obs.gauge_add(Gauge::SrvParkedWaiters, 1);
                    }
                }
            }

            Request::ParityWriteUnlock { hdr, group, intra, payload } => {
                let local = self.map_parity(&hdr, group, intra)?;
                let len = payload.len();
                let cost = self.classify_write(hdr.fh, StreamKind::Parity, local, len);
                self.store.write(hdr.fh, StreamKind::Parity, local, payload);
                self.stats.bytes_stored += len;
                self.obs.add(Ctr::SrvParityBytes, len);
                effects.push(self.reply(from, req_id, Response::Done { bytes: len }, cost));
                // Release; a woken waiter keeps the lock and gets its read
                // served now.
                if let Some(next) = self.locks.release((hdr.fh, group)) {
                    self.obs.gauge_sub(Gauge::SrvParkedWaiters, 1);
                    // §5.1 grant ordering is the one latency phase only
                    // this state machine can see: the waiter parked at
                    // `parked_at_ns` and is granted now. Its lock-wait
                    // span, under the *waiter's* context, rides on the
                    // reply effect for the executor to piggyback.
                    let lock_wait = next.hdr.trace.map(|cx| {
                        TraceSpan::server(cx, Phase::LockWait, next.parked_at_ns, now_ns, self.id)
                    });
                    let (resp, cost) =
                        self.do_parity_read(&next.hdr, next.group, next.intra, next.len)?;
                    let mut woken = self.reply(next.from, next.req_id, resp, cost);
                    {
                        let Effect::Reply { trace, lock_wait: lw, .. } = &mut woken;
                        *trace = next.hdr.trace;
                        *lw = lock_wait;
                    }
                    effects.push(woken);
                }
            }

            Request::ReadData { hdr, spans } => {
                let (resp, cost) = self.do_span_read(&hdr, &spans, StreamKind::Data)?;
                effects.push(self.reply(from, req_id, resp, cost));
            }

            Request::ReadMirror { hdr, spans } => {
                let (resp, cost) = self.do_span_read(&hdr, &spans, StreamKind::Mirror)?;
                effects.push(self.reply(from, req_id, resp, cost));
            }

            Request::ReadLatest { hdr, spans } => {
                let mut cost = DiskCost::default();
                let mut parts = Vec::with_capacity(spans.len());
                for span in &spans {
                    let (local, len) = self.map_data_span(&hdr, *span)?;
                    cost.merge(&self.classify_read(hdr.fh, StreamKind::Data, local, len));
                    let base = self.store.read(hdr.fh, StreamKind::Data, local, len);
                    // Overlay live overflow extents.
                    let entries = self
                        .overflow
                        .get(&hdr.fh)
                        .map(|t| t.lookup(span.logical_off, span.len))
                        .unwrap_or_default();
                    if entries.is_empty() {
                        self.obs.inc(Ctr::SrvOverflowMisses);
                        parts.push(base);
                        continue;
                    }
                    self.obs.inc(Ctr::SrvOverflowHits);
                    let mut segs = Vec::with_capacity(entries.len() * 2 + 1);
                    let mut cursor = span.logical_off;
                    for e in entries {
                        if e.logical_off > cursor {
                            segs.push(base.slice(cursor - span.logical_off, e.logical_off - cursor));
                        }
                        cost.merge(&self.classify_read(
                            hdr.fh,
                            StreamKind::Overflow,
                            e.file_off,
                            e.len,
                        ));
                        segs.push(self.store.read(hdr.fh, StreamKind::Overflow, e.file_off, e.len));
                        cursor = e.logical_off + e.len;
                    }
                    if cursor < span.end() {
                        segs.push(base.slice(cursor - span.logical_off, span.end() - cursor));
                    }
                    parts.push(Payload::concat(&segs));
                }
                let payload = Payload::concat(&parts);
                effects.push(self.reply(from, req_id, Response::Data { payload }, cost));
            }

            Request::OverflowWrite { hdr, spans, mirror } => {
                let stream = if mirror { StreamKind::OverflowMirror } else { StreamKind::Overflow };
                let mut cost = DiskCost::default();
                let mut bytes = 0;
                for (span, payload) in spans {
                    // Validate ownership: primary lives on the block's home,
                    // the mirror on the next server.
                    let block = hdr.layout.block_of(span.logical_off);
                    let owner = if mirror {
                        hdr.layout.mirror_server(block)
                    } else {
                        hdr.layout.home_server(block)
                    };
                    if owner != self.id {
                        return Err(CsarError::Protocol(format!(
                            "overflow span for block {block} sent to server {} (owner {owner})",
                            self.id
                        )));
                    }
                    if payload.len() != span.len {
                        return Err(CsarError::Protocol("overflow payload length mismatch".into()));
                    }
                    let len = payload.len();
                    let unit = hdr.layout.stripe_unit;
                    let intra = span.logical_off % unit;
                    // Whole-block slot allocation with reuse: a block's
                    // latest version lives in one slot.
                    let slot_key = (hdr.fh, mirror, block);
                    let data_off = match self.overflow_slots.get(&slot_key) {
                        Some(&slot) => {
                            let off = slot + intra;
                            self.cache.write_range((hdr.fh, stream), off, len);
                            self.store.write(hdr.fh, stream, off, payload);
                            cost.disk_write_bytes += len;
                            off
                        }
                        None => {
                            // Pad to a full stripe-unit slot (the padded
                            // block is written out whole).
                            let padded = if payload.is_data() {
                                // Gather the zero padding around the data
                                // instead of copying into a fresh block;
                                // the zero runs share the static zero
                                // buffer.
                                Payload::concat(&[
                                    Payload::zeros(intra as usize),
                                    payload.clone(),
                                    Payload::zeros((unit - intra - len) as usize),
                                ])
                            } else {
                                Payload::Phantom(unit)
                            };
                            let slot = self.store.append(hdr.fh, stream, padded);
                            self.overflow_slots.insert(slot_key, slot);
                            self.cache.write_range((hdr.fh, stream), slot, unit);
                            cost.disk_write_bytes += unit;
                            slot + intra
                        }
                    };
                    let table = if mirror {
                        self.overflow_mirror.entry(hdr.fh).or_default()
                    } else {
                        self.overflow.entry(hdr.fh).or_default()
                    };
                    table.insert(span.logical_off, span.len, data_off);
                    bytes += len;
                }
                self.stats.bytes_stored += bytes;
                self.obs.add(Ctr::SrvOverflowBytes, bytes);
                effects.push(self.reply(from, req_id, Response::Done { bytes }, cost));
            }

            Request::OverflowFetch { hdr, spans, mirror } => {
                let stream = if mirror { StreamKind::OverflowMirror } else { StreamKind::Overflow };
                let table = if mirror { &self.overflow_mirror } else { &self.overflow };
                let mut found = Vec::new(); // alloc-ok: overflow run list, not a byte buffer
                for span in &spans {
                    if let Some(t) = table.get(&hdr.fh) {
                        found.extend(t.lookup(span.logical_off, span.len));
                    }
                }
                let mut cost = DiskCost::default();
                let mut runs = Vec::with_capacity(found.len());
                for e in found {
                    cost.merge(&self.classify_read(hdr.fh, stream, e.file_off, e.len));
                    runs.push((e.logical_off, self.store.read(hdr.fh, stream, e.file_off, e.len)));
                }
                effects.push(self.reply(from, req_id, Response::Runs { runs }, cost));
            }

            Request::DumpOverflowTable { hdr, mirror } => {
                let table = if mirror { &self.overflow_mirror } else { &self.overflow };
                let entries = table.get(&hdr.fh).map(OverflowTable::dump).unwrap_or_default();
                effects.push(self.reply(from, req_id, Response::Table { entries }, DiskCost::default()));
            }

            Request::GetUsage { hdr } => {
                let usage = self.store.usage_for(hdr.fh);
                effects.push(self.reply(from, req_id, Response::Usage { usage }, DiskCost::default()));
            }

            Request::EvictFile { hdr } => {
                self.cache.evict_file(hdr.fh);
                effects.push(self.reply(from, req_id, Response::Done { bytes: 0 }, DiskCost::default()));
            }

            Request::CompactOverflow { hdr } => {
                let cost = self.compact_overflow(hdr.fh);
                effects.push(self.reply(from, req_id, Response::Done { bytes: 0 }, cost));
            }

            Request::OverflowQuery { hdr, off, len, mirror } => {
                let table = if mirror { &self.overflow_mirror } else { &self.overflow };
                let (live_bytes, generation) = table
                    .get(&hdr.fh)
                    .map(|t| (t.live_in_range(off, len), t.generation()))
                    .unwrap_or((0, 0));
                effects.push(self.reply(
                    from,
                    req_id,
                    Response::OverflowStatus { live_bytes, generation },
                    DiskCost::default(),
                ));
            }

            Request::InvalidateOverflowRange { hdr, off, len, mirror, if_generation } => {
                // The cleaner's conditional reclaim: drop coverage only if
                // no writer inserted since the generation was sampled —
                // otherwise the newer overflow entries must keep masking
                // the cleaner's stale in-place rewrite (§6.7 lost-update
                // guard), and reclaim waits for the next pass.
                let table = if mirror { &mut self.overflow_mirror } else { &mut self.overflow };
                let mut bytes = 0;
                if let Some(t) = table.get_mut(&hdr.fh) {
                    if t.generation() == if_generation {
                        bytes = t.live_in_range(off, len);
                        t.invalidate(off, len);
                    } else {
                        self.obs.inc(Ctr::SrvInvalidationsDeferred);
                    }
                }
                effects.push(self.reply(from, req_id, Response::Done { bytes }, DiskCost::default()));
            }

            Request::GetStats => {
                let snapshot = self.obs.snapshot();
                effects.push(self.reply(from, req_id, Response::Stats { snapshot }, DiskCost::default()));
            }

            Request::Wipe => {
                self.store.clear();
                self.cache.evict_all();
                self.overflow.clear();
                self.overflow_mirror.clear();
                self.overflow_slots.clear();
                effects.push(self.reply(from, req_id, Response::Done { bytes: 0 }, DiskCost::default()));
            }
        }
        Ok(())
    }

    // ----- helpers ----------------------------------------------------------

    fn map_data_span(&self, hdr: &ReqHeader, span: Span) -> Result<(u64, u64), CsarError> {
        let layout = &hdr.layout;
        let (block, intra) = layout.locate(span.logical_off);
        if intra + span.len > layout.stripe_unit {
            return Err(CsarError::Protocol("span crosses a stripe-block boundary".into()));
        }
        if layout.home_server(block) != self.id {
            return Err(CsarError::Protocol(format!(
                "span for block {block} sent to server {} (home {})",
                self.id,
                layout.home_server(block)
            )));
        }
        Ok((layout.data_local_off(block, intra), span.len))
    }

    fn map_mirror_span(&self, hdr: &ReqHeader, span: Span) -> Result<(u64, u64), CsarError> {
        let layout = &hdr.layout;
        let (block, intra) = layout.locate(span.logical_off);
        if intra + span.len > layout.stripe_unit {
            return Err(CsarError::Protocol("span crosses a stripe-block boundary".into()));
        }
        if layout.mirror_server(block) != self.id {
            return Err(CsarError::Protocol(format!(
                "mirror span for block {block} sent to server {} (mirror {})",
                self.id,
                layout.mirror_server(block)
            )));
        }
        Ok((layout.mirror_local_off(block, intra), span.len))
    }

    fn map_parity(&self, hdr: &ReqHeader, group: u64, intra: u64) -> Result<u64, CsarError> {
        let layout = &hdr.layout;
        if layout.servers < 2 {
            return Err(CsarError::InsufficientServers { scheme: "parity".to_string(), servers: layout.servers });
        }
        if layout.parity_server(group) != self.id {
            return Err(CsarError::Protocol(format!(
                "parity of group {group} sent to server {} (owner {})",
                self.id,
                layout.parity_server(group)
            )));
        }
        if intra >= layout.stripe_unit {
            return Err(CsarError::Protocol("parity intra-offset beyond stripe unit".into()));
        }
        Ok(layout.parity_local_off(group, intra))
    }

    fn do_parity_read(
        &mut self,
        hdr: &ReqHeader,
        group: u64,
        intra: u64,
        len: u64,
    ) -> Result<(Response, DiskCost), CsarError> {
        let local = self.map_parity(hdr, group, intra)?;
        let cost = self.classify_read(hdr.fh, StreamKind::Parity, local, len);
        let payload = self.store.read(hdr.fh, StreamKind::Parity, local, len);
        Ok((Response::Data { payload }, cost))
    }

    fn do_span_read(
        &mut self,
        hdr: &ReqHeader,
        spans: &[Span],
        stream: StreamKind,
    ) -> Result<(Response, DiskCost), CsarError> {
        let mut cost = DiskCost::default();
        let mut parts = Vec::with_capacity(spans.len());
        for span in spans {
            let (local, len) = match stream {
                StreamKind::Mirror => self.map_mirror_span(hdr, *span)?,
                _ => self.map_data_span(hdr, *span)?,
            };
            cost.merge(&self.classify_read(hdr.fh, stream, local, len));
            parts.push(self.store.read(hdr.fh, stream, local, len));
        }
        Ok((Response::Data { payload: Payload::concat(&parts) }, cost))
    }

    /// Classify a read of `[off, off+len)` against the cache model.
    ///
    /// Holes — including everything beyond EOF — cost nothing: the file
    /// system synthesises zeros for them without touching the disk. The
    /// check must be per extent, not per EOF: a sparse file extended by a
    /// concurrent writer (common when many ranks fill one dump region)
    /// must not charge disk reads for rows nobody ever wrote.
    fn classify_read(&mut self, fh: u64, stream: StreamKind, off: u64, len: u64) -> DiskCost {
        let mut cost = DiskCost::default();
        if len == 0 {
            return cost;
        }
        let Some(file) = self.store.file(fh, stream) else {
            return cost;
        };
        let fs = self.cfg.fs_block;
        for blk in off / fs..=(off + len - 1) / fs {
            // A resident block is a hit; an absent one is read from disk
            // unless it is a hole — zeros, free, nothing becomes resident.
            let on_disk = || file.range_touches(blk * fs, fs);
            if let Some(rac) = self.cache.read_block((fh, stream), blk, on_disk) {
                cost.cache_read_bytes += rac.hit_blocks * fs;
                cost.disk_read_bytes += rac.miss_blocks * fs;
            }
        }
        cost.disk_read_ops = u64::from(cost.disk_read_bytes > 0);
        cost
    }

    /// Classify a write of `[off, off+len)`: §5.2 partial-block pre-read
    /// logic plus dirty-page accounting.
    fn classify_write(&mut self, fh: u64, stream: StreamKind, off: u64, len: u64) -> DiskCost {
        let mut cost = DiskCost { disk_write_bytes: len, ..DiskCost::default() };
        if len == 0 {
            return cost;
        }
        if !self.cfg.pad_partial_blocks {
            let fs = self.cfg.fs_block;
            let file = self.store.file(fh, stream);
            let cache = &mut self.cache;
            let mut pre_read = |blk: u64| {
                // A pre-read is needed only if the block holds old data
                // on disk (covered, i.e. not a hole) and is not resident.
                let covered = file.is_some_and(|f| f.range_touches(blk * fs, fs));
                if covered && !cache.contains_block((fh, stream), blk) {
                    cost.disk_read_bytes += fs;
                    cost.disk_read_ops += 1;
                    // The pre-read loads it.
                    cache.read_range((fh, stream), blk * fs, 1);
                }
            };
            if self.cfg.write_buffering {
                // Only the unaligned head/tail blocks can be partial.
                partial_edge_blocks(fs, off, len).for_each(pre_read);
            } else {
                // §5.2 pathology: non-blocking receives deliver whatever
                // the socket has (~RECV_CHUNK at a time), so every
                // receive boundary splits a block mid-write.
                const RECV_CHUNK: u64 = 64 * 1024;
                let first = off / fs;
                let last = (off + len - 1) / fs;
                let stride = (RECV_CHUNK / fs).max(1);
                (first..=last).step_by(stride as usize).for_each(&mut pre_read);
                if !(last - first).is_multiple_of(stride) {
                    pre_read(last);
                }
            }
        }
        self.cache.write_range((fh, stream), off, len);
        cost
    }

    /// Compact the overflow logs of `fh`: rewrite live extents into fresh
    /// logs and drop dead space (the paper's §6.7 proposal, run when the
    /// system is idle).
    fn compact_overflow(&mut self, fh: u64) -> DiskCost {
        let mut cost = DiskCost::default();
        for (mirror, stream) in
            [(false, StreamKind::Overflow), (true, StreamKind::OverflowMirror)]
        {
            let table = if mirror { &mut self.overflow_mirror } else { &mut self.overflow };
            let Some(t) = table.get_mut(&fh) else { continue };
            let entries = t.dump();
            // Read live data out...
            let live: Vec<(u64, u64, Payload)> = entries
                .iter()
                .map(|e| (e.logical_off, e.len, self.store.read(fh, stream, e.file_off, e.len)))
                .collect();
            for e in &entries {
                cost.disk_read_bytes += e.len;
                cost.disk_read_ops += 1;
            }
            // ...reset the log (contents and append cursor) and append the
            // live extents back compactly.
            t.clear();
            self.store.reset_log(fh, stream);
            let table = if mirror { &mut self.overflow_mirror } else { &mut self.overflow };
            let Some(t) = table.get_mut(&fh) else { continue };
            for (logical_off, len, payload) in live {
                let file_off = self.store.append(fh, stream, payload);
                t.insert(logical_off, len, file_off);
                cost.disk_write_bytes += len;
            }
        }
        // Compaction repacks the logs, so existing slots are gone.
        self.overflow_slots.retain(|(f, _, _), _| *f != fh);
        self.cache.evict_file(fh);
        cost
    }
}

/// The file-system blocks of `[off, off+len)` that a §5.2 *buffered*
/// write still touches partially: at most the head and tail blocks.
///
/// With write buffering each connection accumulates network data and
/// flushes it to the file in whole blocks, so only the unaligned edges
/// of a request can need a pre-read. Yields block indices, head first,
/// without allocating: [`IoServer::classify_write`] calls it on every
/// write.
fn partial_edge_blocks(block_size: u64, off: u64, len: u64) -> impl Iterator<Item = u64> {
    let (mut head, mut tail) = (None, None);
    if len > 0 {
        let first = off / block_size;
        let last = (off + len - 1) / block_size;
        if !off.is_multiple_of(block_size) {
            head = Some(first);
        }
        if !(off + len).is_multiple_of(block_size) && (head.is_none() || last != first) {
            tail = Some(last);
        }
    }
    head.into_iter().chain(tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Scheme;
    use crate::Layout;

    const UNIT: u64 = 8;

    fn hdr(n: u32) -> ReqHeader {
        ReqHeader::new(1, Layout::new(n, UNIT), Scheme::Hybrid)
    }

    fn server(id: ServerId) -> IoServer {
        IoServer::new(id, ServerConfig { fs_block: 4, ..ServerConfig::default() })
    }

    fn data(v: &[u8]) -> Payload {
        Payload::from_vec(v.to_vec())
    }

    fn only_reply(mut effects: Vec<Effect>) -> (Response, DiskCost) {
        assert_eq!(effects.len(), 1, "expected exactly one effect");
        let Effect::Reply { resp, cost, .. } = effects.pop().unwrap();
        (resp, cost)
    }

    #[test]
    fn write_then_read_data_span() {
        let mut s = server(0);
        // Block 0 (logical [0,8)) homes on server 0 with 3 servers.
        let span = Span { logical_off: 0, len: 8 };
        let (resp, _) = only_reply(s.handle(
            9,
            1,
            Request::WriteData {
                hdr: hdr(3),
                spans: vec![(span, data(&[1, 2, 3, 4, 5, 6, 7, 8]))],
                invalidate_primary: false,
                invalidate_mirror_spans: vec![],
            },
        ));
        assert_eq!(resp.into_done().unwrap(), 8);
        let (resp, _) = only_reply(s.handle(9, 2, Request::ReadData { hdr: hdr(3), spans: vec![span] }));
        assert_eq!(resp.into_payload().unwrap(), data(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }

    #[test]
    fn wrong_server_is_protocol_error() {
        let mut s = server(1);
        let span = Span { logical_off: 0, len: 8 }; // block 0 homes on server 0
        let (resp, _) = only_reply(s.handle(
            9,
            1,
            Request::ReadData { hdr: hdr(3), spans: vec![span] },
        ));
        assert!(matches!(resp, Response::Err(CsarError::Protocol(_))));
    }

    #[test]
    fn span_crossing_block_boundary_rejected() {
        let mut s = server(0);
        let span = Span { logical_off: 4, len: 8 }; // crosses 8-byte block edge
        let (resp, _) = only_reply(s.handle(9, 1, Request::ReadData { hdr: hdr(3), spans: vec![span] }));
        assert!(matches!(resp, Response::Err(CsarError::Protocol(_))));
    }

    #[test]
    fn parity_lock_defers_and_wakes_fifo() {
        // 3 servers: group 0 = blocks 0,1; parity on server 2.
        let mut s = server(2);
        let h = hdr(3);
        // Client A locks.
        let e = s.handle(10, 1, Request::ParityReadLock { hdr: h, group: 0, intra: 0, len: 8 });
        assert_eq!(e.len(), 1);
        // Clients B and C queue: no effects.
        assert!(s.handle(11, 2, Request::ParityReadLock { hdr: h, group: 0, intra: 0, len: 8 }).is_empty());
        assert!(s.handle(12, 3, Request::ParityReadLock { hdr: h, group: 0, intra: 0, len: 8 }).is_empty());
        assert_eq!(s.stats.parked, 2);
        // A's unlock-write wakes B (unlock reply + B's read reply).
        let e = s.handle(
            10,
            4,
            Request::ParityWriteUnlock { hdr: h, group: 0, intra: 0, payload: data(&[7; 8]) },
        );
        assert_eq!(e.len(), 2);
        let Effect::Reply { to, resp, .. } = &e[1];
        assert_eq!(*to, 11);
        assert_eq!(resp.clone().into_payload().unwrap(), data(&[7; 8]));
        // B unlocks, waking C.
        let e = s.handle(
            11,
            5,
            Request::ParityWriteUnlock { hdr: h, group: 0, intra: 0, payload: data(&[8; 8]) },
        );
        assert_eq!(e.len(), 2);
        let Effect::Reply { to, .. } = &e[1];
        assert_eq!(*to, 12);
        // C unlocks; lock now free.
        let e = s.handle(
            12,
            6,
            Request::ParityWriteUnlock { hdr: h, group: 0, intra: 0, payload: data(&[9; 8]) },
        );
        assert_eq!(e.len(), 1);
        let (contended, acqs) = s.lock_contention();
        assert_eq!((contended, acqs), (2, 3));
    }

    #[test]
    fn unlocked_parity_read_never_defers() {
        let mut s = server(2);
        let h = hdr(3);
        s.handle(10, 1, Request::ParityReadLock { hdr: h, group: 0, intra: 0, len: 8 });
        // R5-NOLOCK style read goes straight through even while locked.
        let e = s.handle(11, 2, Request::ParityRead { hdr: h, group: 0, intra: 0, len: 8 });
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn overflow_write_overlays_read_latest() {
        let mut s = server(0);
        let h = hdr(3);
        let span = Span { logical_off: 0, len: 8 };
        // In-place data: all 1s.
        s.handle(9, 1, Request::WriteData {
            hdr: h,
            spans: vec![(span, data(&[1; 8]))],
            invalidate_primary: false,
            invalidate_mirror_spans: vec![],
        });
        // Overflow write of the middle four bytes: 2s.
        let part = Span { logical_off: 2, len: 4 };
        s.handle(9, 2, Request::OverflowWrite { hdr: h, spans: vec![(part, data(&[2; 4]))], mirror: false });
        // Latest read merges.
        let (resp, _) = only_reply(s.handle(9, 3, Request::ReadLatest { hdr: h, spans: vec![span] }));
        assert_eq!(resp.into_payload().unwrap(), data(&[1, 1, 2, 2, 2, 2, 1, 1]));
        // Plain data read still sees in-place (parity consistency!).
        let (resp, _) = only_reply(s.handle(9, 4, Request::ReadData { hdr: h, spans: vec![span] }));
        assert_eq!(resp.into_payload().unwrap(), data(&[1; 8]));
        assert_eq!(s.overflow_live_bytes(1), 4);
    }

    #[test]
    fn full_write_invalidates_overflow() {
        let mut s = server(0);
        let h = hdr(3);
        let span = Span { logical_off: 0, len: 8 };
        let part = Span { logical_off: 2, len: 4 };
        s.handle(9, 1, Request::OverflowWrite { hdr: h, spans: vec![(part, data(&[2; 4]))], mirror: false });
        assert_eq!(s.overflow_live_bytes(1), 4);
        // Full-group in-place write with invalidation.
        s.handle(9, 2, Request::WriteData {
            hdr: h,
            spans: vec![(span, data(&[3; 8]))],
            invalidate_primary: true,
            invalidate_mirror_spans: vec![],
        });
        assert_eq!(s.overflow_live_bytes(1), 0);
        let (resp, _) = only_reply(s.handle(9, 3, Request::ReadLatest { hdr: h, spans: vec![span] }));
        assert_eq!(resp.into_payload().unwrap(), data(&[3; 8]));
    }

    #[test]
    fn mirror_stream_and_ownership() {
        // Block 0 homes on server 0; its mirror lives on server 1.
        let mut s = server(1);
        let h = hdr(3);
        let span = Span { logical_off: 0, len: 8 };
        let (resp, _) = only_reply(s.handle(9, 1, Request::WriteMirror { hdr: h, spans: vec![(span, data(&[5; 8]))] }));
        assert_eq!(resp.into_done().unwrap(), 8);
        let (resp, _) = only_reply(s.handle(9, 2, Request::ReadMirror { hdr: h, spans: vec![span] }));
        assert_eq!(resp.into_payload().unwrap(), data(&[5; 8]));
        // The home server rejects a mirror write for its own block.
        let mut s0 = server(0);
        let (resp, _) = only_reply(s0.handle(9, 3, Request::WriteMirror { hdr: h, spans: vec![(span, data(&[5; 8]))] }));
        assert!(matches!(resp, Response::Err(CsarError::Protocol(_))));
    }

    #[test]
    fn overwrite_of_uncached_partial_block_costs_a_preread() {
        let mut s = server(0);
        let h = hdr(3);
        // Lay down a full block (fs_block = 4): logical [0,8) = local [0,8).
        let span = Span { logical_off: 0, len: 8 };
        s.handle(9, 1, Request::WriteData {
            hdr: h,
            spans: vec![(span, data(&[1; 8]))],
            invalidate_primary: false,
            invalidate_mirror_spans: vec![],
        });
        // Evict, then partially overwrite bytes [1,3): sub-block, uncached.
        s.handle(9, 2, Request::EvictFile { hdr: h });
        let part = Span { logical_off: 1, len: 2 };
        let (_, cost) = only_reply(s.handle(9, 3, Request::WriteData {
            hdr: h,
            spans: vec![(part, data(&[9, 9]))],
            invalidate_primary: false,
            invalidate_mirror_spans: vec![],
        }));
        assert_eq!(cost.disk_read_bytes, 4, "one fs-block pre-read");
        assert_eq!(cost.disk_read_ops, 1);
        // Same write while cached costs no pre-read.
        let (_, cost) = only_reply(s.handle(9, 4, Request::WriteData {
            hdr: h,
            spans: vec![(part, data(&[9, 9]))],
            invalidate_primary: false,
            invalidate_mirror_spans: vec![],
        }));
        assert_eq!(cost.disk_read_bytes, 0);
    }

    #[test]
    fn initial_write_beyond_eof_needs_no_preread() {
        let mut s = server(0);
        let h = hdr(3);
        // Partial-block write into a fresh file: nothing to pre-read.
        let part = Span { logical_off: 1, len: 2 };
        let (_, cost) = only_reply(s.handle(9, 1, Request::WriteData {
            hdr: h,
            spans: vec![(part, data(&[9, 9]))],
            invalidate_primary: false,
            invalidate_mirror_spans: vec![],
        }));
        assert_eq!(cost.disk_read_bytes, 0);
    }

    #[test]
    fn no_write_buffering_prereads_every_uncached_block() {
        let mut cfg = ServerConfig { fs_block: 4, ..ServerConfig::default() };
        cfg.write_buffering = false;
        let mut s = IoServer::new(0, cfg);
        let h = hdr(3);
        let span = Span { logical_off: 0, len: 8 };
        s.handle(9, 1, Request::WriteData {
            hdr: h,
            spans: vec![(span, data(&[1; 8]))],
            invalidate_primary: false,
            invalidate_mirror_spans: vec![],
        });
        s.handle(9, 2, Request::EvictFile { hdr: h });
        // Aligned full rewrite, but without buffering both blocks are at risk.
        let (_, cost) = only_reply(s.handle(9, 3, Request::WriteData {
            hdr: h,
            spans: vec![(span, data(&[2; 8]))],
            invalidate_primary: false,
            invalidate_mirror_spans: vec![],
        }));
        assert_eq!(cost.disk_read_bytes, 8, "two fs-block pre-reads");
    }

    #[test]
    fn padding_partial_blocks_suppresses_prereads() {
        let cfg = ServerConfig { fs_block: 4, pad_partial_blocks: true, ..ServerConfig::default() };
        let mut s = IoServer::new(0, cfg);
        let h = hdr(3);
        let span = Span { logical_off: 0, len: 8 };
        s.handle(9, 1, Request::WriteData {
            hdr: h,
            spans: vec![(span, data(&[1; 8]))],
            invalidate_primary: false,
            invalidate_mirror_spans: vec![],
        });
        s.handle(9, 2, Request::EvictFile { hdr: h });
        let part = Span { logical_off: 1, len: 2 };
        let (_, cost) = only_reply(s.handle(9, 3, Request::WriteData {
            hdr: h,
            spans: vec![(part, data(&[9, 9]))],
            invalidate_primary: false,
            invalidate_mirror_spans: vec![],
        }));
        assert_eq!(cost.disk_read_bytes, 0);
    }

    #[test]
    fn usage_reports_streams() {
        let mut s = server(0);
        let h = hdr(3);
        let span = Span { logical_off: 0, len: 8 };
        s.handle(9, 1, Request::WriteData {
            hdr: h,
            spans: vec![(span, data(&[1; 8]))],
            invalidate_primary: false,
            invalidate_mirror_spans: vec![],
        });
        let part = Span { logical_off: 2, len: 4 };
        s.handle(9, 2, Request::OverflowWrite { hdr: h, spans: vec![(part, data(&[2; 4]))], mirror: false });
        let (resp, _) = only_reply(s.handle(9, 3, Request::GetUsage { hdr: h }));
        match resp {
            Response::Usage { usage } => {
                assert_eq!(usage.data, 8);
                // Overflow allocates a whole stripe-unit slot (unit = 8)
                // even for the 4-byte partial.
                assert_eq!(usage.overflow, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn compact_overflow_reclaims_dead_space() {
        let mut s = server(0);
        let h = hdr(3);
        let part = Span { logical_off: 0, len: 4 };
        // Write the same logical range three times: the block's slot is
        // reused, so the log holds one whole-unit slot (8 bytes).
        for i in 0..3u8 {
            s.handle(9, i as u64, Request::OverflowWrite {
                hdr: h,
                spans: vec![(part, data(&[i; 4]))],
                mirror: false,
            });
        }
        assert_eq!(s.store().usage_for(1).overflow, 8);
        // A second, distinct block (block 3, also homed on server 0 with
        // 3 servers) allocates another slot.
        let part2 = Span { logical_off: 25, len: 2 };
        s.handle(9, 5, Request::OverflowWrite { hdr: h, spans: vec![(part2, data(&[7; 2]))], mirror: false });
        assert_eq!(s.store().usage_for(1).overflow, 16);
        let (resp, _) = only_reply(s.handle(9, 10, Request::CompactOverflow { hdr: h }));
        resp.into_done().unwrap();
        assert_eq!(s.store().usage_for(1).overflow, 6, "only live bytes survive compaction");
        // Latest data still reads back.
        let (resp, _) = only_reply(s.handle(9, 11, Request::ReadLatest { hdr: h, spans: vec![part] }));
        assert_eq!(resp.into_payload().unwrap(), data(&[2; 4]));
    }

    #[test]
    fn wipe_clears_everything() {
        let mut s = server(0);
        let h = hdr(3);
        let span = Span { logical_off: 0, len: 8 };
        s.handle(9, 1, Request::WriteData {
            hdr: h,
            spans: vec![(span, data(&[1; 8]))],
            invalidate_primary: false,
            invalidate_mirror_spans: vec![],
        });
        s.handle(9, 2, Request::Wipe);
        let (resp, _) = only_reply(s.handle(9, 3, Request::ReadData { hdr: h, spans: vec![span] }));
        assert_eq!(resp.into_payload().unwrap(), Payload::zeros(8));
        assert_eq!(s.store().usage_for(1).total(), 0);
    }

    #[test]
    fn partial_edge_blocks_cases() {
        let edges = |off, len| partial_edge_blocks(4096, off, len).collect::<Vec<_>>();
        // Fully aligned: no partial blocks.
        assert!(edges(0, 8192).is_empty());
        // Unaligned head only.
        assert_eq!(edges(100, 8092), vec![0]);
        // Unaligned tail only.
        assert_eq!(edges(0, 5000), vec![1]);
        // Both edges.
        assert_eq!(edges(100, 8000), vec![0, 1]);
        // Sub-block write entirely inside one block: one entry, not two.
        assert_eq!(edges(10, 20), vec![0]);
        // Zero length.
        assert!(edges(5, 0).is_empty());
    }
}
