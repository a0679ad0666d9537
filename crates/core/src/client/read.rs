//! Read drivers, including degraded-mode reads after a server failure.
//!
//! Normal reads never touch redundancy (the paper: "the expected
//! performance of reads is the same as in PVFS because redundancy is not
//! read during normal operation") — RAID0/1/5 read the data files,
//! Hybrid reads the data files with the servers overlaying live overflow
//! extents (`ReadLatest`).
//!
//! Degraded reads (one failed server, the fault model of the paper's
//! long-term goal) reconstruct each lost span:
//!
//! * RAID1 — fetch the mirror copy from the next server;
//! * RAID5 — XOR the group's surviving in-place blocks with its parity;
//! * Hybrid — RAID5-style reconstruction of the in-place data, then
//!   overlay the overflow *mirror* extents held by the next server
//!   (partial-group writes never updated the in-place data, so parity
//!   reconstruction yields the pre-overflow contents, and the overlay
//!   restores the latest).
//! * RAID0 — data loss.
//!
//! All requests go out at `Begin`; each reconstruction job folds its XOR
//! the moment its last input arrives, so a slow survivor only delays the
//! spans that actually need it.

use super::{Completion, Effect, OpDriver, OpOutput, Token};
use crate::error::CsarError;
use crate::layout::Span;
use crate::manager::FileMeta;
use crate::proto::{ReqHeader, Request, Response, Scheme, ServerId};
use csar_store::Payload;
use std::collections::{BTreeMap, HashMap};

/// Client-side read state machine.
#[derive(Debug)]
pub struct ReadDriver {
    hdr: ReqHeader,
    off: u64,
    len: u64,
    failed: Option<ServerId>,
    started: bool,
    finished: bool,
    /// What each outstanding token is for.
    pending: HashMap<Token, Pending>,
    /// Reconstruction jobs for spans on the failed server.
    recon: Vec<ReconJob>,
    /// Outstanding sends + computes; 0 after start means assemble.
    outstanding: usize,
    /// Assembled `(logical_off, payload)` segments.
    segments: Vec<(u64, Payload)>,
    next_token: Token,
}

/// What a token's completion means.
#[derive(Debug)]
enum Pending {
    /// Normal read: the reply payload is the concatenation of `spans`.
    Normal { spans: Vec<Span> },
    /// Surviving-block or parity input `slot` of reconstruction `job`.
    ReconInput { job: usize, slot: usize },
    /// Overflow-mirror fetch of reconstruction `job` (Hybrid).
    ReconOverlay { job: usize },
    /// XOR charge for a finished reconstruction.
    Compute,
}

#[derive(Debug)]
struct ReconJob {
    span: Span,
    /// Surviving-block reads followed by the parity read (RAID1's mirror
    /// path has a single input and no parity).
    inputs: Vec<Option<Payload>>,
    inputs_missing: usize,
    /// Hybrid: overflow-mirror runs to overlay; `None` until arrived,
    /// absent entirely for non-Hybrid schemes.
    overlay: Option<Option<Vec<(u64, Payload)>>>,
}

impl ReconJob {
    fn ready(&self) -> bool {
        self.inputs_missing == 0 && !matches!(self.overlay, Some(None))
    }
}

impl ReadDriver {
    /// Plan a read of `[off, off+len)`. `failed` marks a fail-stopped
    /// server to read around.
    ///
    /// # Panics
    /// Panics on zero-length reads.
    pub fn new(meta: &FileMeta, off: u64, len: u64, failed: Option<ServerId>) -> Self {
        assert!(len > 0, "zero-length reads are a caller-side no-op");
        Self {
            hdr: ReqHeader::new(meta.fh, meta.layout, meta.scheme),
            off,
            len,
            failed,
            started: false,
            finished: false,
            pending: HashMap::new(),
            recon: Vec::new(), // alloc-ok: reconstruction bookkeeping, empty until a degraded read
            outstanding: 0,
            segments: Vec::new(), // alloc-ok: segment list, not a byte buffer
            next_token: 0,
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

    /// Plan and emit every request up front — reads have no intra-op
    /// write ordering to respect, so the whole fan-out pipelines.
    fn build(&mut self, effects: &mut Vec<Effect>) -> Result<(), CsarError> {
        let ly = self.hdr.layout;
        let scheme = self.hdr.scheme;
        let hdr = self.hdr;
        let normal_req = |spans: Vec<Span>| -> Request {
            if scheme == Scheme::Hybrid {
                Request::ReadLatest { hdr, spans }
            } else {
                Request::ReadData { hdr, spans }
            }
        };

        let mut normal_per_server: BTreeMap<ServerId, Vec<Span>> = BTreeMap::new();
        let mut mirror_per_server: BTreeMap<ServerId, Vec<Span>> = BTreeMap::new();
        let mut lost: Vec<Span> = Vec::new(); // alloc-ok: span list, empty unless a server is down
        for s in ly.spans(self.off, self.len) {
            let home = ly.home_server(ly.block_of(s.logical_off));
            if Some(home) == self.failed {
                lost.push(s);
            } else {
                normal_per_server.entry(home).or_default().push(s);
            }
        }

        if !lost.is_empty() {
            match scheme {
                Scheme::Raid0 => {
                    let failed = self.failed.ok_or_else(|| {
                        CsarError::Protocol("lost spans recorded without a failed server".into())
                    })?;
                    return Err(CsarError::DataLoss(format!(
                        "RAID0 cannot serve {} span(s) on failed server {failed}",
                        lost.len(),
                    )));
                }
                Scheme::Raid1 => {
                    for s in &lost {
                        mirror_per_server
                            .entry(ly.mirror_server(ly.block_of(s.logical_off)))
                            .or_default()
                            .push(*s);
                    }
                }
                _ => {} // parity schemes handled below, per span
            }
        }

        for (srv, spans) in normal_per_server {
            self.send(effects, srv, normal_req(spans.clone()), Pending::Normal { spans });
        }
        for (srv, spans) in mirror_per_server {
            self.send(
                effects,
                srv,
                Request::ReadMirror { hdr, spans: spans.clone() },
                Pending::Normal { spans },
            );
        }

        if scheme.uses_parity() {
            let unit = ly.stripe_unit;
            for s in lost {
                let job = self.recon.len();
                let block = ly.block_of(s.logical_off);
                let group = ly.group_of_block(block);
                let intra = s.logical_off % unit;
                let mut slots = 0usize;
                for b in ly.group_blocks(group) {
                    if b == block {
                        continue;
                    }
                    let other_span = Span { logical_off: b * unit + intra, len: s.len };
                    self.send(
                        effects,
                        ly.home_server(b),
                        Request::ReadData { hdr, spans: vec![other_span] },
                        Pending::ReconInput { job, slot: slots },
                    );
                    slots += 1;
                }
                self.send(
                    effects,
                    ly.parity_server(group),
                    Request::ParityRead { hdr, group, intra, len: s.len },
                    Pending::ReconInput { job, slot: slots },
                );
                slots += 1;
                let overlay = if scheme == Scheme::Hybrid {
                    self.send(
                        effects,
                        ly.mirror_server(block),
                        Request::OverflowFetch { hdr, spans: vec![s], mirror: true },
                        Pending::ReconOverlay { job },
                    );
                    Some(None)
                } else {
                    None
                };
                self.recon.push(ReconJob {
                    span: s,
                    inputs: vec![None; slots],
                    inputs_missing: slots,
                    overlay,
                });
            }
        }
        Ok(())
    }

    /// A reconstruction job has all inputs: fold the XOR, overlay the
    /// overflow runs, push the segment, and charge the compute.
    fn finish_job(&mut self, job: usize, effects: &mut Vec<Effect>) -> Result<(), CsarError> {
        let j = &mut self.recon[job];
        let n_inputs = j.inputs.len() as u64;
        let mut acc: Option<Payload> = None;
        for p in j.inputs.drain(..) {
            let p = p.ok_or_else(|| {
                CsarError::Protocol("reconstruction input missing at fold time".into())
            })?;
            // First input seeds the accumulator (its buffer is
            // uniquified on the first fold); the rest xor in place.
            match acc.as_mut() {
                None => acc = Some(p),
                Some(a) => a.xor_assign(&p),
            }
        }
        let Some(mut rebuilt) = acc else {
            return Err(CsarError::Protocol("reconstruction job with no inputs".into()));
        };
        effects.push(Effect::Count { ctr: csar_obs::Ctr::RdDegradedRecons, n: 1 });
        let bytes = rebuilt.len() * n_inputs;
        // Hybrid: overlay the overflow-mirror runs.
        let span = j.span;
        if let Some(runs) = j.overlay.take().flatten() {
            for (run_off, run_pay) in runs {
                debug_assert!(
                    run_off >= span.logical_off && run_off + run_pay.len() <= span.end()
                );
                rebuilt.write_at(run_off - span.logical_off, &run_pay);
            }
        }
        self.segments.push((span.logical_off, rebuilt));
        let token = self.token();
        self.pending.insert(token, Pending::Compute);
        self.outstanding += 1;
        effects.push(Effect::Compute { token, bytes });
        Ok(())
    }

    fn assemble(&mut self) -> Effect {
        self.segments.sort_by_key(|(o, _)| *o);
        // Verify the segments partition [off, off+len).
        let mut cursor = self.off;
        for (o, p) in &self.segments {
            if *o != cursor {
                return self.fail(CsarError::Protocol(format!(
                    "read assembly gap at {cursor} (next segment at {o})"
                )));
            }
            cursor += p.len();
        }
        if cursor != self.off + self.len {
            return self.fail(CsarError::Protocol("read assembly short".into()));
        }
        let parts: Vec<Payload> = self.segments.drain(..).map(|(_, p)| p).collect();
        self.finished = true;
        Effect::Done(Ok(OpOutput::Read { payload: Payload::concat(&parts) }))
    }

    fn fail(&mut self, e: CsarError) -> Effect {
        self.finished = true;
        Effect::Done(Err(e))
    }
}

impl OpDriver for ReadDriver {
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
                if let Err(e) = self.build(&mut effects) {
                    return vec![self.fail(e)];
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
                    Pending::Normal { spans } => {
                        let payload = match resp.into_payload() {
                            Ok(p) => p,
                            Err(e) => return vec![self.fail(e)],
                        };
                        let mut cursor = 0u64;
                        for s in spans {
                            self.segments.push((s.logical_off, payload.slice(cursor, s.len)));
                            cursor += s.len;
                        }
                    }
                    Pending::ReconInput { job, slot } => {
                        let payload = match resp.into_payload() {
                            Ok(p) => p,
                            Err(e) => return vec![self.fail(e)],
                        };
                        let j = &mut self.recon[job];
                        debug_assert!(j.inputs[slot].is_none(), "duplicate recon input");
                        j.inputs[slot] = Some(payload);
                        j.inputs_missing -= 1;
                        if j.ready() {
                            if let Err(e) = self.finish_job(job, &mut effects) {
                                return vec![self.fail(e)];
                            }
                        }
                    }
                    Pending::ReconOverlay { job } => {
                        let runs = match resp {
                            Response::Runs { runs } => runs,
                            other => {
                                return vec![self.fail(CsarError::Protocol(format!(
                                    "expected Runs reply, got {other:?}"
                                )))]
                            }
                        };
                        let j = &mut self.recon[job];
                        j.overlay = Some(Some(runs));
                        if j.ready() {
                            if let Err(e) = self.finish_job(job, &mut effects) {
                                return vec![self.fail(e)];
                            }
                        }
                    }
                    Pending::Compute => {
                        return vec![self.fail(CsarError::Protocol(
                            "reply completion for a compute token".into(),
                        ))]
                    }
                }
            }
            Completion::ComputeDone { token } => {
                match self.pending.remove(&token) {
                    Some(Pending::Compute) => self.outstanding -= 1,
                    _ => {
                        return vec![self.fail(CsarError::Protocol(
                            "compute completion for a non-compute token".into(),
                        ))]
                    }
                }
            }
        }
        if self.outstanding == 0 {
            effects.push(self.assemble());
        }
        effects
    }
}
