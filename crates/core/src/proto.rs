//! Wire protocol between CSAR clients, I/O servers and the manager.
//!
//! Mirrors the PVFS request structure: clients talk to each I/O server
//! directly with one request per server per operation phase (this is
//! what makes per-request overheads scale the way the paper measures).
//! Requests are self-describing — they carry the file handle, layout and
//! scheme — so the I/O servers stay stateless about file metadata, like
//! PVFS iods.

use crate::error::CsarError;
use crate::layout::{Layout, Span};
use crate::overflow::OverflowEntry;
use csar_obs::trace::TraceCtx;
use csar_store::{FromJson, Json, JsonError, Payload, StreamUsage, ToJson};

/// Identifies a client process.
pub type ClientId = u32;
/// Identifies an I/O server.
pub type ServerId = u32;

/// The redundancy scheme of a file.
///
/// `Raid5NoLock` and `Raid5NoParityCompute` are the paper's two
/// instrumentation variants: the former skips the §5.1 locking protocol
/// (used in Figs. 3 and 6a to isolate synchronization overhead; it can
/// leave parity inconsistent under concurrency), the latter skips the XOR
/// itself (Fig. 4a's *RAID5-npc*, isolating parity-computation cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Plain PVFS striping, no redundancy.
    Raid0,
    /// Striped block mirroring.
    Raid1,
    /// Rotating parity with the §5.1 lock protocol.
    Raid5,
    /// RAID5 without parity locking (measurement variant).
    Raid5NoLock,
    /// RAID5 without computing parity contents (measurement variant).
    Raid5NoParityCompute,
    /// The paper's contribution: per-write RAID5/RAID1 switching.
    Hybrid,
}

impl Scheme {
    /// All schemes in the paper's reporting order.
    pub const MAIN: [Scheme; 4] = [Scheme::Raid0, Scheme::Raid1, Scheme::Raid5, Scheme::Hybrid];

    /// Human-readable label, matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Raid0 => "RAID0",
            Scheme::Raid1 => "RAID1",
            Scheme::Raid5 => "RAID5",
            Scheme::Raid5NoLock => "R5-NOLOCK",
            Scheme::Raid5NoParityCompute => "RAID5-npc",
            Scheme::Hybrid => "Hybrid",
        }
    }

    /// Does this scheme use parity groups?
    pub fn uses_parity(self) -> bool {
        !matches!(self, Scheme::Raid0 | Scheme::Raid1)
    }

    /// Does this scheme hold parity locks on partial-group updates?
    /// (`Raid5NoParityCompute` keeps locking — the paper's npc variant
    /// comments out only the XOR.)
    pub fn uses_locking(self) -> bool {
        matches!(self, Scheme::Raid5 | Scheme::Raid5NoParityCompute | Scheme::Hybrid)
    }

    /// Every scheme, including the instrumentation variants.
    pub const ALL: [Scheme; 6] = [
        Scheme::Raid0,
        Scheme::Raid1,
        Scheme::Raid5,
        Scheme::Raid5NoLock,
        Scheme::Raid5NoParityCompute,
        Scheme::Hybrid,
    ];
}

impl ToJson for Scheme {
    fn to_json(&self) -> Json {
        Json::from(self.label())
    }
}

impl FromJson for Scheme {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let label = j.as_str().ok_or_else(|| JsonError("scheme must be a string".into()))?;
        Scheme::ALL
            .into_iter()
            .find(|s| s.label() == label)
            .ok_or_else(|| JsonError(format!("unknown scheme `{label}`")))
    }
}

/// One parity block's worth of a parity write.
#[derive(Debug, Clone)]
pub struct ParityPart {
    /// Parity-group index.
    pub group: u64,
    /// Byte offset inside the group's parity block.
    pub intra: u64,
    /// The parity bytes.
    pub payload: Payload,
}

/// Per-request header: everything a stateless I/O server needs.
///
/// The optional [`TraceCtx`] is the causal-tracing propagation vector:
/// the client's completion engine stamps each transmitted attempt with
/// its trace and attempt-span IDs, and the server executor hangs its
/// child spans (queue wait, §5.1 lock wait, service) under that span.
/// The context is 17 bytes and rides inside the protocol's fixed
/// 64-byte wire header ([`WIRE_HEADER`] — `fh` + layout + scheme use
/// well under half of it), so enabling tracing changes no simulated
/// wire size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqHeader {
    /// File handle.
    pub fh: u64,
    /// Striping/parity layout of the file.
    pub layout: Layout,
    /// Redundancy scheme of the file.
    pub scheme: Scheme,
    /// Causal-trace context, `None` when tracing is off.
    pub trace: Option<TraceCtx>,
}

impl ReqHeader {
    /// A header with no trace context (the engine stamps one per
    /// transmitted attempt when tracing is enabled).
    pub fn new(fh: u64, layout: Layout, scheme: Scheme) -> Self {
        ReqHeader { fh, layout, scheme, trace: None }
    }
}

/// A request to an I/O server.
#[derive(Debug, Clone)]
pub enum Request {
    /// Write spans into the data file (in place). `invalidate_primary`
    /// drops overlapping overflow-table entries for these spans (Hybrid
    /// full-group writes); `invalidate_mirror_spans` drops overlapping
    /// *mirror*-table entries for spans homed on the previous server.
    WriteData {
        /// Request header.
        hdr: ReqHeader,
        /// The spans to write, with their payloads.
        spans: Vec<(Span, Payload)>,
        /// Drop overlapping overflow-table entries for these spans.
        invalidate_primary: bool,
        /// Drop overlapping overflow-*mirror* entries for these spans.
        invalidate_mirror_spans: Vec<Span>,
    },
    /// Write mirror copies (RAID1) of blocks homed on the previous server.
    WriteMirror {
        /// Request header.
        hdr: ReqHeader,
        /// The spans to mirror, with their payloads.
        spans: Vec<(Span, Payload)>,
    },
    /// Write parity blocks (full-group path; no locking — a full-group
    /// write replaces parity wholesale). One request may carry the parity
    /// of several groups owned by this server.
    WriteParity {
        /// Request header.
        hdr: ReqHeader,
        /// Parity blocks to write.
        parts: Vec<ParityPart>,
        /// Drop overlapping overflow-*mirror* entries for these spans.
        invalidate_mirror_spans: Vec<Span>,
    },
    /// Read parity without locking (recovery, verification, and the
    /// R5-NOLOCK variant).
    ParityRead {
        /// Request header.
        hdr: ReqHeader,
        /// Parity-group index.
        group: u64,
        /// Byte offset inside the group's parity block.
        intra: u64,
        /// Bytes to read.
        len: u64,
    },
    /// §5.1: read parity and acquire the group's parity lock; queued
    /// behind an existing holder.
    ParityReadLock {
        /// Request header.
        hdr: ReqHeader,
        /// Parity-group index (also the lock key).
        group: u64,
        /// Byte offset inside the group's parity block.
        intra: u64,
        /// Bytes to read.
        len: u64,
    },
    /// §5.1: write parity and release the lock (waking the next queued
    /// reader, if any).
    ParityWriteUnlock {
        /// Request header.
        hdr: ReqHeader,
        /// Parity-group index (also the lock key).
        group: u64,
        /// Byte offset inside the group's parity block.
        intra: u64,
        /// The new parity bytes.
        payload: Payload,
    },
    /// Read spans from the data file (in-place contents only).
    ReadData {
        /// Request header.
        hdr: ReqHeader,
        /// The spans to read.
        spans: Vec<Span>,
    },
    /// Read spans from the mirror file (degraded RAID1 reads).
    ReadMirror {
        /// Request header.
        hdr: ReqHeader,
        /// The spans to read from the mirror file.
        spans: Vec<Span>,
    },
    /// Read spans returning the *latest* contents: in-place data overlaid
    /// with live overflow extents (the Hybrid read path).
    ReadLatest {
        /// Request header.
        hdr: ReqHeader,
        /// The spans to read (overflow-overlaid).
        spans: Vec<Span>,
    },
    /// Append partial-group data to the overflow region (`mirror` selects
    /// the overflow-mirror log) and record it in the overflow table.
    OverflowWrite {
        /// Request header.
        hdr: ReqHeader,
        /// The spans to append, with their payloads.
        spans: Vec<(Span, Payload)>,
        /// Write to the overflow-mirror log instead of the primary log.
        mirror: bool,
    },
    /// Fetch whatever live overflow extents overlap the spans.
    OverflowFetch {
        /// Request header.
        hdr: ReqHeader,
        /// The spans to probe for live overflow extents.
        spans: Vec<Span>,
        /// Probe the overflow-mirror table instead of the primary table.
        mirror: bool,
    },
    /// Dump the overflow table for this file (rebuild support).
    DumpOverflowTable {
        /// Request header.
        hdr: ReqHeader,
        /// Dump the overflow-mirror table instead of the primary table.
        mirror: bool,
    },
    /// Storage usage for this file on this server (Table 2).
    GetUsage {
        /// Request header.
        hdr: ReqHeader,
    },
    /// Drop this file's blocks from the server's cache model (harness
    /// support for the paper's "overwrite after eviction" experiments).
    EvictFile {
        /// Request header.
        hdr: ReqHeader,
    },
    /// Compact this file's overflow logs, keeping only live extents —
    /// the background space-recovery process §6.7 proposes.
    CompactOverflow {
        /// Request header.
        hdr: ReqHeader,
    },
    /// Ranged overflow liveness probe: how many bytes of
    /// `[off, off+len)` are currently served from the overflow log, and
    /// the table's insert generation. The cleaner uses the range to
    /// target only dirty groups and the generation to make its later
    /// invalidation conditional (lost-update guard).
    OverflowQuery {
        /// Request header.
        hdr: ReqHeader,
        /// Logical start of the probed range.
        off: u64,
        /// Length of the probed range.
        len: u64,
        /// Probe the overflow-mirror table instead of the primary table.
        mirror: bool,
    },
    /// Conditionally drop overflow coverage of `[off, off+len)`: applied
    /// only if the table's generation still equals `if_generation`
    /// (i.e. no partial write landed since the matching
    /// [`Request::OverflowQuery`]); otherwise a no-op reporting 0 bytes.
    InvalidateOverflowRange {
        /// Request header.
        hdr: ReqHeader,
        /// Logical start of the range to invalidate.
        off: u64,
        /// Length of the range to invalidate.
        len: u64,
        /// Target the overflow-mirror table instead of the primary table.
        mirror: bool,
        /// Expected table generation; mismatch defers the invalidation.
        if_generation: u64,
    },
    /// Scrape this server's metrics registry (the observability layer's
    /// protocol surface — any client can pull a [`csar_obs::Snapshot`]).
    GetStats,
    /// Wipe the server (simulates replacing a failed disk, before rebuild).
    Wipe,
}

/// A reply from an I/O server.
#[derive(Debug, Clone)]
pub enum Response {
    /// Write-class request completed; `bytes` were stored.
    Done {
        /// Bytes stored by the request.
        bytes: u64,
    },
    /// Read-class request: spans assembled in request order (holes
    /// zero-filled).
    Data {
        /// The assembled bytes.
        payload: Payload,
    },
    /// Sparse fetch results: `(logical_off, payload)` runs actually found.
    Runs {
        /// `(logical_off, payload)` runs actually found.
        runs: Vec<(u64, Payload)>,
    },
    /// Overflow-table dump.
    Table {
        /// The live overflow-table entries.
        entries: Vec<OverflowEntry>,
    },
    /// Storage usage.
    Usage {
        /// Per-stream byte counts.
        usage: StreamUsage,
    },
    /// Ranged overflow liveness (reply to [`Request::OverflowQuery`]).
    OverflowStatus {
        /// Live overflow bytes inside the probed range.
        live_bytes: u64,
        /// The table's insert generation at probe time.
        generation: u64,
    },
    /// Metrics snapshot (reply to [`Request::GetStats`]).
    Stats {
        /// The server's frozen metrics registry.
        snapshot: csar_obs::Snapshot,
    },
    /// Failure.
    Err(CsarError),
}

impl Response {
    /// Unwrap a `Data` reply.
    pub fn into_payload(self) -> Result<Payload, CsarError> {
        match self {
            Response::Data { payload } => Ok(payload),
            Response::Err(e) => Err(e),
            other => Err(CsarError::Protocol(format!("expected Data reply, got {other:?}"))),
        }
    }

    /// Unwrap a `Done` reply.
    pub fn into_done(self) -> Result<u64, CsarError> {
        match self {
            Response::Done { bytes } => Ok(bytes),
            Response::Err(e) => Err(e),
            other => Err(CsarError::Protocol(format!("expected Done reply, got {other:?}"))),
        }
    }
}

/// Approximate on-the-wire size of protocol messages, for the simulator's
/// bandwidth accounting. Fixed header plus span descriptors plus payload
/// bytes (phantom payloads count their full length — they stand in for
/// real traffic).
pub const WIRE_HEADER: u64 = 64;
/// Per-span descriptor bytes.
pub const WIRE_SPAN: u64 = 16;

impl Request {
    /// Total payload bytes carried.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Request::WriteData { spans, .. }
            | Request::WriteMirror { spans, .. }
            | Request::OverflowWrite { spans, .. } => spans.iter().map(|(_, p)| p.len()).sum(),
            Request::WriteParity { parts, .. } => parts.iter().map(|p| p.payload.len()).sum(),
            Request::ParityWriteUnlock { payload, .. } => payload.len(),
            _ => 0,
        }
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        let spans = match self {
            Request::WriteData { spans, invalidate_mirror_spans, .. } => {
                spans.len() + invalidate_mirror_spans.len()
            }
            Request::WriteMirror { spans, .. } | Request::OverflowWrite { spans, .. } => spans.len(),
            Request::ReadData { spans, .. }
            | Request::ReadMirror { spans, .. }
            | Request::ReadLatest { spans, .. }
            | Request::OverflowFetch { spans, .. } => spans.len(),
            Request::WriteParity { parts, invalidate_mirror_spans, .. } => {
                parts.len() + invalidate_mirror_spans.len()
            }
            _ => 1,
        } as u64;
        WIRE_HEADER + spans * WIRE_SPAN + self.payload_bytes()
    }

    /// The request header, if this request class carries one
    /// (`GetStats` and `Wipe` are header-free and stay untraced).
    pub fn header(&self) -> Option<&ReqHeader> {
        match self {
            Request::WriteData { hdr, .. }
            | Request::WriteMirror { hdr, .. }
            | Request::WriteParity { hdr, .. }
            | Request::ParityRead { hdr, .. }
            | Request::ParityReadLock { hdr, .. }
            | Request::ParityWriteUnlock { hdr, .. }
            | Request::ReadData { hdr, .. }
            | Request::ReadMirror { hdr, .. }
            | Request::ReadLatest { hdr, .. }
            | Request::OverflowWrite { hdr, .. }
            | Request::OverflowFetch { hdr, .. }
            | Request::DumpOverflowTable { hdr, .. }
            | Request::GetUsage { hdr }
            | Request::EvictFile { hdr }
            | Request::CompactOverflow { hdr }
            | Request::OverflowQuery { hdr, .. }
            | Request::InvalidateOverflowRange { hdr, .. } => Some(hdr),
            Request::GetStats | Request::Wipe => None,
        }
    }

    /// May this request be transparently re-sent after a missed
    /// deadline? Only side-effect-free reads qualify. `ParityReadLock`
    /// explicitly does not: a slow grant usually means the request is
    /// parked behind another client's critical section, and a second
    /// acquisition attempt could double-lock the group.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            Request::ReadData { .. }
                | Request::ReadMirror { .. }
                | Request::ReadLatest { .. }
                | Request::ParityRead { .. }
                | Request::OverflowFetch { .. }
                | Request::DumpOverflowTable { .. }
                | Request::GetUsage { .. }
                | Request::OverflowQuery { .. }
                | Request::GetStats
        )
    }

    /// Is this the §5.1 lock-acquiring parity read? Its round trip
    /// includes any wait behind the lock's holder.
    pub fn is_lock_read(&self) -> bool {
        matches!(self, Request::ParityReadLock { .. })
    }

    /// The propagated trace context, if any.
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        self.header().and_then(|h| h.trace)
    }

    /// Stamp (or clear) the trace context. The completion engine calls
    /// this once per transmitted attempt, so retries of the same
    /// request carry distinct attempt-span parents.
    pub fn set_trace(&mut self, ctx: Option<TraceCtx>) {
        match self {
            Request::WriteData { hdr, .. }
            | Request::WriteMirror { hdr, .. }
            | Request::WriteParity { hdr, .. }
            | Request::ParityRead { hdr, .. }
            | Request::ParityReadLock { hdr, .. }
            | Request::ParityWriteUnlock { hdr, .. }
            | Request::ReadData { hdr, .. }
            | Request::ReadMirror { hdr, .. }
            | Request::ReadLatest { hdr, .. }
            | Request::OverflowWrite { hdr, .. }
            | Request::OverflowFetch { hdr, .. }
            | Request::DumpOverflowTable { hdr, .. }
            | Request::GetUsage { hdr }
            | Request::EvictFile { hdr }
            | Request::CompactOverflow { hdr }
            | Request::OverflowQuery { hdr, .. }
            | Request::InvalidateOverflowRange { hdr, .. } => hdr.trace = ctx,
            Request::GetStats | Request::Wipe => {}
        }
    }
}

impl Response {
    /// Total payload bytes carried.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Response::Data { payload } => payload.len(),
            Response::Runs { runs } => runs.iter().map(|(_, p)| p.len()).sum(),
            _ => 0,
        }
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        WIRE_HEADER + self.payload_bytes()
    }
}

/// Disk/cache activity attributed to one request by the I/O server.
///
/// The live cluster accumulates these as statistics; the simulator
/// converts them into time on the server's disk resource.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCost {
    /// Bytes read from the platter (cache misses, §5.2 pre-reads, RMW
    /// pre-reads of uncached old data/parity).
    pub disk_read_bytes: u64,
    /// Distinct disk read operations (each may pay positioning time).
    pub disk_read_ops: u64,
    /// Bytes written (dirtied in the page cache; destaged by write-back).
    pub disk_write_bytes: u64,
    /// Bytes served from the page cache.
    pub cache_read_bytes: u64,
}

impl DiskCost {
    /// Accumulate another cost.
    pub fn merge(&mut self, other: &DiskCost) {
        self.disk_read_bytes += other.disk_read_bytes;
        self.disk_read_ops += other.disk_read_ops;
        self.disk_write_bytes += other.disk_write_bytes;
        self.cache_read_bytes += other.cache_read_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> ReqHeader {
        ReqHeader::new(1, Layout::new(4, 64), Scheme::Hybrid)
    }

    #[test]
    fn scheme_labels_match_paper() {
        assert_eq!(Scheme::Raid0.label(), "RAID0");
        assert_eq!(Scheme::Raid5NoParityCompute.label(), "RAID5-npc");
        assert!(Scheme::Hybrid.uses_parity());
        assert!(!Scheme::Raid1.uses_parity());
        assert!(Scheme::Raid5.uses_locking());
        assert!(!Scheme::Raid5NoLock.uses_locking());
    }

    #[test]
    fn wire_size_counts_payload_and_spans() {
        let s = Span { logical_off: 0, len: 100 };
        let req = Request::WriteData {
            hdr: hdr(),
            spans: vec![(s, Payload::Phantom(100))],
            invalidate_primary: false,
            invalidate_mirror_spans: vec![],
        };
        assert_eq!(req.payload_bytes(), 100);
        assert_eq!(req.wire_size(), WIRE_HEADER + WIRE_SPAN + 100);

        let read = Request::ReadData { hdr: hdr(), spans: vec![s, s] };
        assert_eq!(read.payload_bytes(), 0);
        assert_eq!(read.wire_size(), WIRE_HEADER + 2 * WIRE_SPAN);

        let resp = Response::Data { payload: Payload::Phantom(500) };
        assert_eq!(resp.wire_size(), WIRE_HEADER + 500);
    }

    #[test]
    fn trace_ctx_stamps_without_changing_wire_size() {
        use csar_obs::trace::{SpanId, TraceId};
        let mut req = Request::ReadData { hdr: hdr(), spans: vec![Span { logical_off: 0, len: 8 }] };
        assert_eq!(req.trace_ctx(), None);
        let before = req.wire_size();
        let ctx = TraceCtx { trace: TraceId(5), span: SpanId(6) };
        req.set_trace(Some(ctx));
        assert_eq!(req.trace_ctx(), Some(ctx));
        assert_eq!(req.header().unwrap().trace, Some(ctx));
        // The context rides in the fixed header: no wire growth.
        assert_eq!(req.wire_size(), before);
        req.set_trace(None);
        assert_eq!(req.trace_ctx(), None);

        // Header-free requests tolerate (and ignore) stamping.
        let mut stats = Request::GetStats;
        stats.set_trace(Some(ctx));
        assert_eq!(stats.trace_ctx(), None);
        assert!(stats.header().is_none());
    }

    #[test]
    fn response_unwrap_helpers() {
        assert_eq!(Response::Done { bytes: 5 }.into_done().unwrap(), 5);
        assert!(Response::Done { bytes: 5 }.into_payload().is_err());
        let e = Response::Err(CsarError::ServerDown(1));
        assert_eq!(e.into_done().unwrap_err(), CsarError::ServerDown(1));
    }

    #[test]
    fn disk_cost_merges() {
        let mut a = DiskCost { disk_read_bytes: 1, disk_read_ops: 1, disk_write_bytes: 2, cache_read_bytes: 3 };
        a.merge(&DiskCost { disk_read_bytes: 10, disk_read_ops: 1, disk_write_bytes: 20, cache_read_bytes: 30 });
        assert_eq!(a.disk_read_bytes, 11);
        assert_eq!(a.disk_read_ops, 2);
        assert_eq!(a.disk_write_bytes, 22);
        assert_eq!(a.cache_read_bytes, 33);
    }
}
