//! Write drivers for the four redundancy schemes.
//!
//! * **RAID0** — one `WriteData` per server.
//! * **RAID1** — `WriteData` plus `WriteMirror` to the next server.
//! * **RAID5** (and its measurement variants) — whole parity groups get
//!   freshly computed parity; partial groups do the §2 read-modify-write:
//!   read old data + old parity (taking the parity lock), compute
//!   `P' = P ⊕ D_old ⊕ D_new`, write new data + new parity (releasing
//!   the lock). With two partial groups the lock reads are serialized
//!   lower-group-first (§5.1 deadlock avoidance).
//! * **Hybrid** — whole groups take the RAID5 path (additionally
//!   invalidating overflowed ranges); partial groups are appended to the
//!   overflow region of each block's home server and mirrored to the
//!   next server. No reads, no locks, in-place data untouched.
//!
//! The driver is completion-driven: independent pieces of the write
//! overlap. The whole-group body goes out as soon as its parity is
//! computed, Hybrid overflow appends go out at `Begin`, and each partial
//! group's RMW advances the moment *its* old data and parity arrive —
//! the only serialization left is the §5.1 rule that the higher group's
//! lock-read is issued by the lower group's grant, and the invariant
//! that an RMW group's parity unlock-write is issued after its data
//! writes.

use super::{Completion, Effect, OpDriver, OpOutput, Token};
use crate::error::CsarError;
use crate::layout::{Layout, Span};
use crate::manager::FileMeta;
use crate::proto::{ParityPart, ReqHeader, Request, Response, Scheme, ServerId};
use csar_obs::Ctr;
use csar_store::Payload;
use std::collections::{BTreeMap, HashMap};

/// Client-side write state machine. Create with [`WriteDriver::new`],
/// drive via [`OpDriver`].
#[derive(Debug)]
pub struct WriteDriver {
    hdr: ReqHeader,
    off: u64,
    payload: Payload,
    /// Partial-group RMW contexts (0..=2 entries, lower group first).
    partials: Vec<Partial>,
    /// Whole-group region, if any.
    full: Option<(u64, u64)>,
    /// Fail-stopped server to write around (degraded mode).
    failed: Option<ServerId>,
    /// Partial spans written in place WITHOUT a parity RMW because the
    /// group's parity server is the failed one (the group is left
    /// unprotected until rebuild).
    plain_partial_spans: Vec<Span>,
    /// Construction-time rejection (e.g. RAID0 spans on the failed
    /// server), reported by the `Begin` poll.
    planning_error: Option<CsarError>,
    /// Batch-compat issue order (see [`WriteDriver::set_batch_issue`]):
    /// whole-group work is held until every partial group's RMW reads
    /// have landed, instead of fanning out at `Begin`.
    batch_issue: bool,
    /// `batch_issue` bookkeeping: a whole-group compute is planned but
    /// not yet emitted.
    full_deferred: bool,
    /// `batch_issue` bookkeeping: completed whole-group parities waiting
    /// for the combined write flush.
    batch_full: Option<Vec<(u64, Payload)>>,
    /// `batch_issue` bookkeeping: completed partial-group RMW parities
    /// (`partials` index, new parity) waiting for the combined flush.
    batch_partials: Vec<(usize, Payload)>,
    started: bool,
    finished: bool,
    pending: HashMap<Token, Pending>,
    /// Outstanding sends + computes; 0 after start means the op is done.
    outstanding: usize,
    next_token: Token,
}

/// What a token's completion means.
#[derive(Debug)]
enum Pending {
    /// Acknowledgement of any write-class request.
    WriteAck,
    /// Parity (lock-)read reply for `partials[partial]`.
    ParityRead { partial: usize },
    /// Old-data read reply; the payload is the concatenation of the
    /// referenced `(partial, span slot)` entries in order.
    DataRead { refs: Vec<(usize, usize)> },
    /// Whole-group parity XOR finished; carry the results to the writes.
    ComputeFull { parities: Vec<(u64, Payload)> },
    /// Partial-group RMW XOR finished for `partials[partial]`.
    ComputePartial { partial: usize, parity: Payload },
}

#[derive(Debug)]
struct Partial {
    group: u64,
    /// Length of this partial region of the write.
    len: u64,
    /// Per-block spans of the region.
    spans: Vec<Span>,
    /// The parity byte-range this update touches: the union of the
    /// spans' intra-block ranges. Reading/writing only this range (not
    /// the whole parity block) is what keeps RAID5 small writes from
    /// paying a full stripe-unit of parity traffic per request.
    intra_lo: u64,
    intra_hi: u64,
    /// Old data per span slot, filled by read completions.
    old_data: Vec<Option<Payload>>,
    data_missing: usize,
    old_parity: Option<Payload>,
    /// Compute already emitted (readiness latches once).
    computing: bool,
}

impl Partial {
    fn ready(&self) -> bool {
        !self.computing && self.data_missing == 0 && self.old_parity.is_some()
    }
}

impl WriteDriver {
    /// Plan a write of `payload` at logical offset `off` of the file.
    ///
    /// # Panics
    /// Panics if the payload is empty (writes of zero bytes are the
    /// caller's no-op). A scheme/layout mismatch is reported as an error
    /// by the `Begin` poll.
    pub fn new(meta: &FileMeta, off: u64, payload: Payload) -> Self {
        Self::new_degraded(meta, off, payload, None)
    }

    /// Plan a write around a fail-stopped server. Degraded writes keep
    /// the file reconstructible:
    ///
    /// * **RAID0** — fails with `DataLoss` when any span is homed on the
    ///   failed server (no redundancy to absorb it);
    /// * **RAID1** — writes only the surviving copy of each block;
    /// * **RAID5/Hybrid whole groups** — skip the failed server's piece;
    ///   a lost *data* block's new contents are implied by the group's
    ///   fresh parity, a lost *parity* block leaves the group unprotected
    ///   until rebuild;
    /// * **Hybrid partial groups** — write the surviving overflow copy
    ///   (primary or mirror, whichever is alive);
    /// * **RAID5 partial groups** — proceed without the parity RMW when
    ///   the failed server holds the *parity*; fail with `DataLoss` when
    ///   it holds the data (nowhere safe to put the bytes — the
    ///   asymmetry the Hybrid scheme's overflow mirroring removes).
    ///
    /// After any degraded write the failed server's contents are stale:
    /// it must be restored via `rebuild`, never by bringing the old disk
    /// back.
    ///
    /// # Panics
    /// Panics if the payload is empty (writes of zero bytes are the
    /// caller's no-op). A scheme/layout mismatch is reported as an error
    /// by the `Begin` poll.
    pub fn new_degraded(
        meta: &FileMeta,
        off: u64,
        payload: Payload,
        failed: Option<ServerId>,
    ) -> Self {
        assert!(!payload.is_empty(), "zero-length writes are a caller-side no-op");
        let ly = meta.layout;
        let hdr = ReqHeader::new(meta.fh, ly, meta.scheme);
        let mut partials = Vec::new(); // alloc-ok: at most two partial-group contexts
        let mut full = None;
        // alloc-ok: span list, empty unless the parity server is down
        let mut plain_partial_spans = Vec::new();
        let mut planning_error = meta.layout.check_scheme(meta.scheme).err();

        if let Some(f) = failed {
            let affected = ly
                .spans(off, payload.len())
                .iter()
                .any(|s| ly.home_server(ly.block_of(s.logical_off)) == f);
            if meta.scheme == Scheme::Raid0 && affected {
                planning_error = Some(CsarError::DataLoss(format!(
                    "RAID0 cannot write blocks homed on failed server {f}"
                )));
            }
            // Degenerate single-server RAID1: home == mirror, so a failed
            // server leaves nowhere to put the bytes.
            if meta.scheme == Scheme::Raid1 && ly.servers == 1 && affected {
                planning_error = Some(CsarError::DataLoss(
                    "single-server RAID1 has no surviving copy to write".into(),
                ));
            }
        }

        if meta.scheme.uses_parity() && planning_error.is_none() {
            let split = ly.split_write(off, payload.len());
            for (po, pl) in split.partials() {
                let spans = ly.spans(po, pl);
                let unit = ly.stripe_unit;
                let group = ly.group_of_off(po);
                if meta.scheme != Scheme::Hybrid {
                    if let Some(f) = failed {
                        if spans.iter().any(|s| ly.home_server(ly.block_of(s.logical_off)) == f) {
                            // RAID5 family: the partial's data block lives
                            // on the dead server and a safe RMW is
                            // impossible.
                            planning_error = Some(CsarError::DataLoss(format!(
                                "RAID5 cannot degraded-write a partial stripe whose data is on failed server {f}; the Hybrid scheme's overflow mirroring exists for this case"
                            )));
                            continue;
                        }
                        if ly.parity_server(group) == f {
                            // Parity unavailable: write the data in place,
                            // leave the group unprotected until rebuild.
                            plain_partial_spans.extend(spans);
                            continue;
                        }
                    }
                }
                let intra_lo = spans.iter().map(|s| s.logical_off % unit).min().unwrap_or(0);
                let intra_hi = spans
                    .iter()
                    .map(|s| s.logical_off % unit + s.len)
                    .max()
                    .unwrap_or(unit);
                let n_spans = spans.len();
                partials.push(Partial {
                    group,
                    len: pl,
                    spans,
                    intra_lo,
                    intra_hi,
                    old_data: vec![None; n_spans],
                    data_missing: n_spans,
                    old_parity: None,
                    computing: false,
                });
            }
            full = split.full;
        }
        Self {
            hdr,
            off,
            payload,
            partials,
            full,
            failed,
            plain_partial_spans,
            planning_error,
            batch_issue: false,
            full_deferred: false,
            batch_full: None,
            batch_partials: Vec::new(), // alloc-ok: batch-issue bookkeeping, empty by default
            started: false,
            finished: false,
            pending: HashMap::new(),
            outstanding: 0,
            next_token: 0,
        }
    }

    fn layout(&self) -> &Layout {
        &self.hdr.layout
    }

    fn scheme(&self) -> Scheme {
        self.hdr.scheme
    }

    /// Slice of the write payload covering `[o, o+l)` of the file.
    fn payload_at(&self, o: u64, l: u64) -> Payload {
        self.payload.slice(o - self.off, l)
    }

    /// Like the payload but with blank contents — the RAID5-npc variant
    /// transfers parity-sized data without computing it.
    fn blank(&self, len: u64) -> Payload {
        if self.payload.is_data() {
            Payload::zeros(len as usize)
        } else {
            Payload::Phantom(len)
        }
    }

    fn token(&mut self) -> Token {
        self.next_token += 1;
        self.next_token - 1
    }

    fn send(
        &mut self,
        effects: &mut Vec<Effect>,
        srv: ServerId,
        req: Request,
        pending: Pending,
    ) {
        let token = self.token();
        self.pending.insert(token, pending);
        self.outstanding += 1;
        effects.push(Effect::Send { token, srv, req });
    }

    fn compute(&mut self, effects: &mut Vec<Effect>, bytes: u64, pending: Pending) {
        let token = self.token();
        self.pending.insert(token, pending);
        self.outstanding += 1;
        effects.push(Effect::Compute { token, bytes });
    }

    // -------------------------------------------------------------------
    // Effect builders
    // -------------------------------------------------------------------

    /// RAID0/RAID1: every write goes out at `Begin`. In degraded mode
    /// requests for the failed server are dropped (RAID1's surviving
    /// copy carries the write; RAID0 was rejected at planning time).
    fn emit_simple(&mut self, effects: &mut Vec<Effect>) {
        let ly = *self.layout();
        for (srv, spans) in ly.spans_by_server(self.off, self.payload.len()) {
            if Some(srv) == self.failed {
                continue;
            }
            let spans = spans
                .into_iter()
                .map(|s| (s, self.payload_at(s.logical_off, s.len)))
                .collect();
            let req = Request::WriteData {
                hdr: self.hdr,
                spans,
                invalidate_primary: false,
                invalidate_mirror_spans: vec![],
            };
            self.send(effects, srv, req, Pending::WriteAck);
        }
        if self.scheme() == Scheme::Raid1 {
            for (srv, spans) in ly.spans_by_mirror_server(self.off, self.payload.len()) {
                if Some(srv) == self.failed {
                    continue;
                }
                let spans = spans
                    .into_iter()
                    .map(|s| (s, self.payload_at(s.logical_off, s.len)))
                    .collect();
                let req = Request::WriteMirror { hdr: self.hdr, spans };
                self.send(effects, srv, req, Pending::WriteAck);
            }
        }
    }

    /// RMW reads: old-data reads for every partial span (batched per
    /// server), and the parity lock-read of the *first* partial group
    /// only — §5.1 serializes lock acquisition, so the higher group's
    /// lock-read is issued by the lower grant's completion, while the
    /// no-lock variant fans out every parity read here.
    fn emit_rmw_reads(&mut self, effects: &mut Vec<Effect>) {
        let locking = self.scheme().uses_locking();
        // §5.1 deadlock avoidance: parity locks are acquired in ascending
        // group order, so `partials` must be sorted by group (split_write
        // yields the lower group first; the second lock-read is gated on
        // the first grant).
        debug_assert!(
            self.partials.windows(2).all(|w| w[0].group < w[1].group),
            "parity lock order must be ascending by group (§5.1)"
        );
        if locking {
            if !self.partials.is_empty() {
                self.emit_parity_read(effects, 0);
            }
        } else {
            for i in 0..self.partials.len() {
                self.emit_parity_read(effects, i);
            }
        }
        // Old-data reads for all partial spans, one request per server.
        let ly = *self.layout();
        // Per server: the spans to read, and each one's (partial, span) index.
        type SpanReads = (Vec<Span>, Vec<(usize, usize)>);
        let mut per_server: BTreeMap<ServerId, SpanReads> = BTreeMap::new();
        for (pi, p) in self.partials.iter().enumerate() {
            for (si, s) in p.spans.iter().enumerate() {
                let srv = ly.home_server(ly.block_of(s.logical_off));
                let e = per_server.entry(srv).or_default();
                e.0.push(*s);
                e.1.push((pi, si));
            }
        }
        for (srv, (spans, refs)) in per_server {
            let req = Request::ReadData { hdr: self.hdr, spans };
            self.send(effects, srv, req, Pending::DataRead { refs });
        }
    }

    /// The parity (lock-)read of `partials[i]`.
    fn emit_parity_read(&mut self, effects: &mut Vec<Effect>, i: usize) {
        let ly = *self.layout();
        let p = &self.partials[i];
        let srv = ly.parity_server(p.group);
        let (group, intra, len) = (p.group, p.intra_lo, p.intra_hi - p.intra_lo);
        let req = if self.scheme().uses_locking() {
            Request::ParityReadLock { hdr: self.hdr, group, intra, len }
        } else {
            Request::ParityRead { hdr: self.hdr, group, intra, len }
        };
        self.send(effects, srv, req, Pending::ParityRead { partial: i });
    }

    /// Degraded RAID5 with the group's parity server dead: the data goes
    /// in place with no RMW.
    fn emit_plain_partials(&mut self, effects: &mut Vec<Effect>) {
        let ly = *self.layout();
        let mut per_server: BTreeMap<ServerId, Vec<(Span, Payload)>> = BTreeMap::new();
        for s in std::mem::take(&mut self.plain_partial_spans) {
            let srv = ly.home_server(ly.block_of(s.logical_off));
            per_server.entry(srv).or_default().push((s, self.payload_at(s.logical_off, s.len)));
        }
        for (srv, spans) in per_server {
            let req = Request::WriteData {
                hdr: self.hdr,
                spans,
                invalidate_primary: false,
                invalidate_mirror_spans: vec![],
            };
            self.send(effects, srv, req, Pending::WriteAck);
        }
    }

    /// Hybrid partial writes: overflow appends (primary + mirror), out
    /// at `Begin` — they overlap the whole-group body entirely. In
    /// degraded mode the surviving copy carries the write alone.
    fn emit_overflow_writes(&mut self, effects: &mut Vec<Effect>) {
        let ly = *self.layout();
        let mut primary: BTreeMap<ServerId, Vec<(Span, Payload)>> = BTreeMap::new();
        let mut mirror: BTreeMap<ServerId, Vec<(Span, Payload)>> = BTreeMap::new();
        for p in &self.partials {
            for s in &p.spans {
                let b = ly.block_of(s.logical_off);
                let pay = self.payload.slice(s.logical_off - self.off, s.len);
                if Some(ly.home_server(b)) != self.failed {
                    primary.entry(ly.home_server(b)).or_default().push((*s, pay.clone()));
                }
                if Some(ly.mirror_server(b)) != self.failed {
                    mirror.entry(ly.mirror_server(b)).or_default().push((*s, pay));
                }
            }
        }
        for (srv, spans) in primary {
            let req = Request::OverflowWrite { hdr: self.hdr, spans, mirror: false };
            self.send(effects, srv, req, Pending::WriteAck);
        }
        for (srv, spans) in mirror {
            let req = Request::OverflowWrite { hdr: self.hdr, spans, mirror: true };
            self.send(effects, srv, req, Pending::WriteAck);
        }
    }

    /// Compute the whole-group parities and emit the `Compute` charge;
    /// the writes go out on its completion.
    fn emit_full_compute(&mut self, effects: &mut Vec<Effect>) {
        let ly = *self.layout();
        let unit = ly.stripe_unit;
        let npc = self.scheme() == Scheme::Raid5NoParityCompute;
        let Some((fo, flen)) = self.full else { return };
        let mut bytes = 0u64;
        let mut parities = Vec::new(); // alloc-ok: one parity handle per group, not a byte copy
        for g in ly.full_groups(fo, flen) {
            let parity = if npc {
                self.blank(unit)
            } else {
                let first = ly.group_first_block(g);
                let mut acc = self.payload_at(first * unit, unit);
                // In-place fold: the first block's slice is shared
                // with the op payload, so the fold's first
                // `xor_assign` pays the group's one copy; the rest
                // accumulate into that buffer with no allocation.
                for b in first + 1..first + ly.group_width_blocks() {
                    acc.xor_assign(&self.payload_at(b * unit, unit));
                }
                bytes += ly.group_width_blocks() * unit;
                acc
            };
            parities.push((g, parity));
        }
        self.compute(effects, bytes, Pending::ComputeFull { parities });
    }

    /// Whole-group writes, issued by the full compute's completion:
    /// per-server data writes, parity writes, and (Hybrid) overflow
    /// invalidations riding whichever request targets that server.
    fn emit_full_writes(&mut self, effects: &mut Vec<Effect>, parities: Vec<(u64, Payload)>) {
        let ly = *self.layout();
        let hybrid = self.scheme() == Scheme::Hybrid;
        let Some((fo, flen)) = self.full else { return };

        let mut data_spans: BTreeMap<ServerId, Vec<(Span, Payload)>> = BTreeMap::new();
        let mut parity_parts: BTreeMap<ServerId, Vec<ParityPart>> = BTreeMap::new();
        let mut mirror_inval: BTreeMap<ServerId, Vec<Span>> = BTreeMap::new();

        for (srv, spans) in ly.spans_by_server(fo, flen) {
            if Some(srv) == self.failed {
                // The dead block's fresh contents are implied by the
                // group's new parity.
                continue;
            }
            let spans = spans
                .into_iter()
                .map(|s| (s, self.payload_at(s.logical_off, s.len)))
                .collect::<Vec<_>>();
            data_spans.insert(srv, spans);
        }
        for (g, parity) in parities {
            let psrv = ly.parity_server(g);
            if Some(psrv) == self.failed {
                // Group unprotected until rebuild.
                continue;
            }
            parity_parts
                .entry(psrv)
                .or_default()
                .push(ParityPart { group: g, intra: 0, payload: parity });
        }
        if hybrid {
            for (srv, spans) in ly.spans_by_mirror_server(fo, flen) {
                if Some(srv) == self.failed {
                    continue;
                }
                mirror_inval.insert(srv, spans);
            }
        }

        let servers: Vec<ServerId> = data_spans
            .keys()
            .chain(parity_parts.keys())
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for srv in servers {
            // The server's mirror invalidations ride its data write, or
            // its parity write when it holds no data of this write.
            let mut inval = mirror_inval.remove(&srv).unwrap_or_default();
            if let Some(spans) = data_spans.remove(&srv) {
                let req = Request::WriteData {
                    hdr: self.hdr,
                    spans,
                    invalidate_primary: hybrid,
                    invalidate_mirror_spans: std::mem::take(&mut inval),
                };
                self.send(effects, srv, req, Pending::WriteAck);
            }
            if let Some(parts) = parity_parts.remove(&srv) {
                let req = Request::WriteParity {
                    hdr: self.hdr,
                    parts,
                    invalidate_mirror_spans: inval,
                };
                self.send(effects, srv, req, Pending::WriteAck);
            }
        }
        debug_assert!(
            mirror_inval.is_empty(),
            "mirror invalidations left without a carrier request: {mirror_inval:?}"
        );
    }

    /// `partials[i]` has its old data and old parity: compute
    /// `P' = P ⊕ D_old ⊕ D_new` over the intra range and emit the
    /// `Compute` charge.
    fn emit_partial_compute(&mut self, effects: &mut Vec<Effect>, i: usize) -> Result<(), CsarError> {
        let unit = self.layout().stripe_unit;
        let npc = self.scheme() == Scheme::Raid5NoParityCompute;
        self.partials[i].computing = true;
        let (lo, hi, len_total) = {
            let p = &self.partials[i];
            (p.intra_lo, p.intra_hi, p.len)
        };
        let old_parity = self.partials[i]
            .old_parity
            .clone()
            .ok_or_else(|| CsarError::Protocol("old parity not read before compute".into()))?;
        debug_assert_eq!(old_parity.len(), hi - lo);
        let (parity, bytes) = if npc {
            (self.blank(hi - lo), 0)
        } else {
            let spans = self.partials[i].spans.clone();
            let old_data = std::mem::take(&mut self.partials[i].old_data);
            let mut parity = old_parity;
            for (si, s) in spans.iter().enumerate() {
                let old = old_data[si]
                    .clone()
                    .ok_or_else(|| CsarError::Protocol("old data not read before compute".into()))?;
                let new = self.payload_at(s.logical_off, s.len);
                let intra = s.logical_off % unit - lo;
                // P' = P ⊕ D_old ⊕ D_new spliced in place: the first
                // `xor_at` uniquifies the server's parity reply (the
                // one copy); no delta buffer, no re-concatenation.
                parity.xor_at(intra, &old);
                parity.xor_at(intra, &new);
            }
            (parity, 3 * len_total)
        };
        self.compute(effects, bytes, Pending::ComputePartial { partial: i, parity });
        Ok(())
    }

    /// `partials[i]`'s new parity is ready: write the new data, then —
    /// strictly after the data writes are issued — the parity
    /// unlock-write. The unlock goes out LAST (the paper's step 3 order:
    /// "write out the new data and new parity"): the lock is held while
    /// the op's data streams through the client link, which is what
    /// makes contended partial stripes serialize whole writes (Fig. 6a's
    /// 25-process RAID5 drop).
    fn emit_partial_writes(&mut self, effects: &mut Vec<Effect>, i: usize, parity: Payload) {
        self.emit_partial_data_writes(effects, i);
        self.emit_partial_parity_write(effects, i, parity);
    }

    /// `partials[i]`'s in-place data writes, one request per server.
    fn emit_partial_data_writes(&mut self, effects: &mut Vec<Effect>, i: usize) {
        let ly = *self.layout();
        let mut per_server: BTreeMap<ServerId, Vec<(Span, Payload)>> = BTreeMap::new();
        for s in self.partials[i].spans.clone() {
            let srv = ly.home_server(ly.block_of(s.logical_off));
            per_server.entry(srv).or_default().push((s, self.payload_at(s.logical_off, s.len)));
        }
        for (srv, spans) in per_server {
            let req = Request::WriteData {
                hdr: self.hdr,
                spans,
                invalidate_primary: false,
                invalidate_mirror_spans: vec![],
            };
            self.send(effects, srv, req, Pending::WriteAck);
        }
    }

    /// `partials[i]`'s parity write: an unlock-write under locking, a
    /// plain parity write for the no-lock variant.
    fn emit_partial_parity_write(&mut self, effects: &mut Vec<Effect>, i: usize, parity: Payload) {
        let ly = *self.layout();
        let p = &self.partials[i];
        let (group, intra) = (p.group, p.intra_lo);
        let srv = ly.parity_server(group);
        let req = if self.scheme().uses_locking() {
            Request::ParityWriteUnlock { hdr: self.hdr, group, intra, payload: parity }
        } else {
            Request::WriteParity {
                hdr: self.hdr,
                parts: vec![ParityPart { group, intra, payload: parity }],
                invalidate_mirror_spans: vec![],
            }
        };
        self.send(effects, srv, req, Pending::WriteAck);
    }

    /// Batch-compat: release the deferred whole-group compute once every
    /// partial group's RMW reads have landed (all partials computing).
    fn maybe_emit_deferred_full(&mut self, effects: &mut Vec<Effect>) {
        if self.full_deferred && self.partials.iter().all(|p| p.computing) {
            self.full_deferred = false;
            self.emit_full_compute(effects);
        }
    }

    /// Batch-compat: once every planned compute has finished, issue ONE
    /// combined write wave in the retired engine's order — whole-group
    /// writes, partial data writes, and the parity unlock-writes
    /// strictly last. Holding the locks across the whole wave's client
    /// transmission is what serializes contended partial stripes
    /// (Fig. 6a's 25-process RAID5 collapse); the pipelined default
    /// releases each group as soon as its own RMW completes.
    fn maybe_flush_batch_writes(&mut self, effects: &mut Vec<Effect>) {
        let all_done = !self.full_deferred
            && (self.full.is_none() || self.batch_full.is_some())
            && self.batch_partials.len() == self.partials.len();
        if !all_done {
            return;
        }
        if let Some(parities) = self.batch_full.take() {
            self.emit_full_writes(effects, parities);
        }
        let parts = std::mem::take(&mut self.batch_partials);
        for &(i, _) in &parts {
            self.emit_partial_data_writes(effects, i);
        }
        for (i, parity) in parts {
            self.emit_partial_parity_write(effects, i, parity);
        }
    }

    /// Plan-shape counters: whole groups vs RMW partials vs Hybrid
    /// overflow partials, counted once per op at `Begin` on the
    /// executor's registry.
    fn count_plan(&self, effects: &mut Vec<Effect>) {
        if let Some((fo, flen)) = self.full {
            let groups = self.layout().full_groups(fo, flen);
            effects.push(Effect::Count { ctr: Ctr::WrWholeGroups, n: groups.end - groups.start });
        }
        if !self.partials.is_empty() {
            let ctr = if self.scheme() == Scheme::Hybrid {
                Ctr::WrOverflowPartials
            } else {
                Ctr::WrRmwGroups
            };
            effects.push(Effect::Count { ctr, n: self.partials.len() as u64 });
        }
    }

    fn fail(&mut self, e: CsarError) -> Effect {
        self.finished = true;
        Effect::Done(Err(e))
    }
}

impl OpDriver for WriteDriver {
    /// Batch-compat issue order: hold the whole-group compute (and so
    /// its writes) until every partial group's RMW reads have landed.
    /// This is the retired batch engine's schedule — read batch, one
    /// compute, one write batch — which is also what the paper's
    /// batch-synchronous PVFS client library did. The simulator's
    /// barrier mode sets this so paper-reproduction figures keep the
    /// overwrite RMW stall the testbed measured; the default (off)
    /// overlaps the whole-group body with the partial-group RMW.
    fn set_batch_issue(&mut self, on: bool) {
        debug_assert!(!self.started, "issue order fixed before Begin");
        self.batch_issue = on;
    }

    fn poll(&mut self, c: Completion) -> Vec<Effect> {
        if self.finished {
            // Late completions of an op that already reported Done.
            return Vec::new(); // alloc-ok: empty, no heap
        }
        let mut effects = Vec::new(); // alloc-ok: effect list, a few entries per poll
        match c {
            Completion::Begin => {
                debug_assert!(!self.started, "Begin polled twice");
                self.started = true;
                if let Some(e) = self.planning_error.take() {
                    return vec![self.fail(e)];
                }
                self.count_plan(&mut effects);
                match self.scheme() {
                    Scheme::Raid0 | Scheme::Raid1 => self.emit_simple(&mut effects),
                    Scheme::Hybrid => {
                        // No reads, no locks: overflow appends and the
                        // whole-group body fan out together.
                        self.emit_overflow_writes(&mut effects);
                        self.emit_full_compute(&mut effects);
                    }
                    _ => {
                        self.emit_plain_partials(&mut effects);
                        self.emit_rmw_reads(&mut effects);
                        if self.batch_issue && !self.partials.is_empty() {
                            // Batch-compat: whole-group work rides behind
                            // the RMW chain (see `set_batch_issue`).
                            self.full_deferred = true;
                        } else {
                            self.emit_full_compute(&mut effects);
                        }
                    }
                }
            }
            Completion::Reply { token, resp } => {
                let Some(pending) = self.pending.remove(&token) else {
                    return vec![self.fail(CsarError::Protocol(format!(
                        "reply for unknown token {token}"
                    )))];
                };
                self.outstanding -= 1;
                if let Response::Err(e) = resp {
                    return vec![self.fail(e)];
                }
                match pending {
                    Pending::WriteAck => {}
                    Pending::ParityRead { partial } => {
                        let payload = match resp.into_payload() {
                            Ok(p) => p,
                            Err(e) => return vec![self.fail(e)],
                        };
                        self.partials[partial].old_parity = Some(payload);
                        // §5.1: the lower group's grant issues the higher
                        // group's lock-read.
                        let next = partial + 1;
                        if self.scheme().uses_locking() && next < self.partials.len() {
                            self.emit_parity_read(&mut effects, next);
                        }
                        if self.partials[partial].ready() {
                            if let Err(e) = self.emit_partial_compute(&mut effects, partial) {
                                return vec![self.fail(e)];
                            }
                        }
                        self.maybe_emit_deferred_full(&mut effects);
                    }
                    Pending::DataRead { refs } => {
                        let payload = match resp.into_payload() {
                            Ok(p) => p,
                            Err(e) => return vec![self.fail(e)],
                        };
                        let mut cursor = 0u64;
                        // alloc-ok: partial indices, not a byte buffer
                        let mut touched: Vec<usize> = Vec::new();
                        for (pi, si) in refs {
                            let len = self.partials[pi].spans[si].len;
                            let p = &mut self.partials[pi];
                            debug_assert!(p.old_data[si].is_none(), "duplicate old-data reply");
                            p.old_data[si] = Some(payload.slice(cursor, len));
                            p.data_missing -= 1;
                            cursor += len;
                            if !touched.contains(&pi) {
                                touched.push(pi);
                            }
                        }
                        for pi in touched {
                            if self.partials[pi].ready() {
                                if let Err(e) = self.emit_partial_compute(&mut effects, pi) {
                                    return vec![self.fail(e)];
                                }
                            }
                        }
                        self.maybe_emit_deferred_full(&mut effects);
                    }
                    Pending::ComputeFull { .. } | Pending::ComputePartial { .. } => {
                        return vec![self.fail(CsarError::Protocol(
                            "reply completion for a compute token".into(),
                        ))]
                    }
                }
            }
            Completion::ComputeDone { token } => {
                let Some(pending) = self.pending.remove(&token) else {
                    return vec![self.fail(CsarError::Protocol(format!(
                        "compute completion for unknown token {token}"
                    )))];
                };
                self.outstanding -= 1;
                match pending {
                    Pending::ComputeFull { parities } => {
                        // Hybrid never locks or defers: its one compute
                        // feeds the whole-group writes directly.
                        if self.batch_issue && self.scheme() != Scheme::Hybrid {
                            self.batch_full = Some(parities);
                            self.maybe_flush_batch_writes(&mut effects);
                        } else {
                            self.emit_full_writes(&mut effects, parities)
                        }
                    }
                    Pending::ComputePartial { partial, parity } => {
                        if self.batch_issue {
                            self.batch_partials.push((partial, parity));
                            self.maybe_flush_batch_writes(&mut effects);
                        } else {
                            self.emit_partial_writes(&mut effects, partial, parity)
                        }
                    }
                    _ => {
                        return vec![self.fail(CsarError::Protocol(
                            "compute completion for a non-compute token".into(),
                        ))]
                    }
                }
            }
        }
        if self.outstanding == 0 {
            self.finished = true;
            effects.push(Effect::Done(Ok(OpOutput::Written { bytes: self.payload.len() })));
        }
        effects
    }
}
