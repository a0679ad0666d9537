//! Maintenance machinery: the §6.7 background overflow cleaner and an
//! offline parity/mirror scrubber.
//!
//! The paper proposes recovering overflow storage with "a simple process
//! that reads files in their entirety and writes them in a large chunk
//! … this process could be run in the background and activated when the
//! system is under a low load. With such a mechanism, the long-term
//! storage of the Hybrid scheme would be the same as the RAID5 scheme."
//! [`Cluster::start_cleaner`] is that process: a daemon thread that
//! periodically rewrites each Hybrid file's overflowed ranges as
//! full-group writes (migrating them back to parity form) and compacts
//! the overflow logs.
//!
//! [`Cluster::scrub`] is the matching verifier: it walks every file and
//! checks each parity group against the in-place data and every RAID1
//! mirror block against its primary — the invariant all recovery paths
//! rely on.

use crate::deploy::Cluster;
use csar_core::proto::{ReqHeader, Request, Response, Scheme, ServerId};
use csar_core::{CsarError, Span};
use csar_obs::{Ctr, Hist};
use csar_parity::ParityAccumulator;
use csar_store::{Payload, StreamKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle to a running background cleaner. Stops (and joins) on drop or
/// via [`CleanerHandle::stop`].
pub struct CleanerHandle {
    stop: Arc<AtomicBool>,
    passes: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl CleanerHandle {
    /// Completed cleaning passes.
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::SeqCst)
    }

    /// Stop the daemon and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for CleanerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Result of one scrub pass.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Files inspected.
    pub files: usize,
    /// Parity groups verified.
    pub groups_checked: u64,
    /// Mirror blocks verified (RAID1).
    pub mirrors_checked: u64,
    /// `(file name, group)` pairs whose parity does not match the data.
    pub bad_groups: Vec<(String, u64)>,
    /// `(file name, block)` pairs whose mirror does not match the data.
    pub bad_mirrors: Vec<(String, u64)>,
}

impl ScrubReport {
    /// True when no inconsistency was found.
    pub fn is_clean(&self) -> bool {
        self.bad_groups.is_empty() && self.bad_mirrors.is_empty()
    }
}

impl Cluster {
    /// Start the §6.7 background cleaner: every `interval`, rewrite each
    /// Hybrid file's overflowed ranges as full parity groups and compact
    /// the overflow logs. Returns a handle; the daemon stops when the
    /// handle is dropped.
    ///
    /// Like the paper's proposal the cleaner is meant for low-load
    /// periods, but it is safe against concurrent writers: each group is
    /// rewritten while holding that group's §5.1 parity lock (so it
    /// serializes with locking writers and other cleaners), and the
    /// overflow entries it migrated are dropped only by a
    /// generation-guarded conditional invalidation — a partial write
    /// that lands mid-rewrite keeps its (newer) overflow entry and the
    /// group's reclaim is simply deferred to the next pass.
    pub fn start_cleaner(&self, interval: Duration) -> CleanerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let passes = Arc::new(AtomicU64::new(0));
        let inner_stop = Arc::clone(&stop);
        let inner_passes = Arc::clone(&passes);
        let client_cluster = self.clone_ref();
        let thread = std::thread::Builder::new()
            .name("csar-cleaner".into())
            .spawn(move || {
                while !inner_stop.load(Ordering::SeqCst) {
                    let _ = client_cluster.clean_pass();
                    inner_passes.fetch_add(1, Ordering::SeqCst);
                    // Sleep in small slices so stop() is responsive.
                    let mut waited = Duration::ZERO;
                    while waited < interval && !inner_stop.load(Ordering::SeqCst) {
                        let slice = Duration::from_millis(10).min(interval - waited);
                        std::thread::sleep(slice);
                        waited += slice;
                    }
                }
            })
            .expect("spawn cleaner");
        CleanerHandle { stop, passes, thread: Some(thread) }
    }

    /// One synchronous cleaning pass over every Hybrid file: rewrite
    /// each group that has live overflow data as an in-place full-group
    /// write with fresh parity, conditionally invalidate the migrated
    /// overflow entries, then compact the logs. Returns the overflow
    /// bytes reclaimed.
    ///
    /// Per group the pass is:
    ///
    /// 1. **Ranged liveness query** — one `OverflowQuery` per block copy
    ///    (primary and mirror), clipped to the group's byte range, so
    ///    only groups that actually hold live overflow are rewritten.
    ///    The reply also carries the owning table's generation, sampled
    ///    here as the reclaim guard.
    /// 2. **Locked rewrite** — take the group's §5.1 parity lock, read
    ///    the latest contents (`ReadLatest` overlays live overflow),
    ///    write them back in place *without* invalidating, and publish
    ///    fresh parity with the unlock-write. Tail groups are rewritten
    ///    clipped to EOF; parity is computed over the zero-extended
    ///    group, matching how holes read as zeros.
    /// 3. **Conditional reclaim** — `InvalidateOverflowRange` with the
    ///    sampled generation. If a partial write raced the rewrite the
    ///    generation has advanced and the server declines: the writer's
    ///    newer overflow entry keeps masking the (now stale) in-place
    ///    bytes and the group's reclaim is deferred to the next pass.
    ///
    /// Concurrent *whole-group* writers remain last-writer-wins against
    /// the cleaner's rewrite, exactly as two racing whole-group writes
    /// always were under Hybrid (neither takes the parity lock).
    pub fn clean_pass(&self) -> Result<u64, CsarError> {
        self.clean_pass_hooked(&mut |_| {})
    }

    /// Test seam: `clean_pass` with a callback invoked after each
    /// group's latest contents are read but before they are rewritten —
    /// the exact window a concurrent partial write must survive.
    #[doc(hidden)]
    pub fn clean_pass_hooked(&self, mid_rewrite: &mut dyn FnMut(u64)) -> Result<u64, CsarError> {
        let client = self.client();
        let obs = self.obs();
        let mut reclaimed = 0u64;
        for meta in client.list_files()? {
            if meta.scheme != Scheme::Hybrid || meta.size == 0 {
                continue;
            }
            let file = client.open(&meta.name)?;
            let before = file.storage_report()?.aggregate();
            if before.overflow + before.overflow_mirror == 0 {
                continue;
            }
            let ly = meta.layout;
            let unit = ly.stripe_unit;
            let hdr = ReqHeader::new(meta.fh, ly, meta.scheme);
            let h = client.handle();
            let groups = meta.size.div_ceil(ly.group_width_bytes());
            let mut acc = ParityAccumulator::new(unit as usize);
            for g in 0..groups {
                obs.inc(Ctr::CleanerGroupsScanned);
                // 1. Ranged liveness + generation guards, per block copy.
                let mut guards: Vec<(ServerId, bool, u64, u64, u64)> = Vec::new();
                for b in ly.group_blocks(g) {
                    let off = b * unit;
                    if off >= meta.size {
                        break;
                    }
                    let len = unit.min(meta.size - off);
                    for (mirror, srv) in [(false, ly.home_server(b)), (true, ly.mirror_server(b))] {
                        match h.send_one(srv, Request::OverflowQuery { hdr, off, len, mirror })? {
                            Response::OverflowStatus { live_bytes, generation } => {
                                if live_bytes > 0 {
                                    guards.push((srv, mirror, off, len, generation));
                                }
                            }
                            Response::Err(e) => return Err(e),
                            other => {
                                return Err(CsarError::Protocol(format!(
                                    "expected OverflowStatus, got {other:?}"
                                )))
                            }
                        }
                    }
                }
                if guards.is_empty() {
                    continue;
                }
                let t0 = Instant::now();
                let (go, glen) = ly.group_byte_range(g);
                let rlen = glen.min(meta.size - go);
                // 2. Locked rewrite: hold the group's parity lock across
                // read → write → parity so locking writers and other
                // cleaners serialize against it.
                h.send_one(
                    ly.parity_server(g),
                    Request::ParityReadLock { hdr, group: g, intra: 0, len: unit },
                )?
                .into_payload()?;
                let latest = file.read_payload(go, rlen)?;
                mid_rewrite(g);
                let mut per_server: BTreeMap<ServerId, Vec<(Span, Payload)>> = BTreeMap::new();
                for s in ly.spans(go, rlen) {
                    per_server
                        .entry(ly.home_server(ly.block_of(s.logical_off)))
                        .or_default()
                        .push((s, latest.slice(s.logical_off - go, s.len)));
                }
                let batch: Vec<(ServerId, Request)> = per_server
                    .into_iter()
                    .map(|(srv, spans)| {
                        (
                            srv,
                            Request::WriteData {
                                hdr,
                                spans,
                                // Invalidation is the separate,
                                // generation-guarded step 3.
                                invalidate_primary: false,
                                invalidate_mirror_spans: vec![],
                            },
                        )
                    })
                    .collect();
                for resp in h.send_batch(batch)? {
                    resp.into_done()?;
                }
                // Fresh parity over the zero-extended group (a tail
                // group's missing bytes read as zeros, so folding only
                // the live spans is exact).
                let parity = if latest.is_data() {
                    acc.reset_to(unit as usize);
                    for s in ly.spans(go, rlen) {
                        let sl = latest.slice(s.logical_off - go, s.len);
                        let mut off = (s.logical_off % unit) as usize;
                        for c in sl.chunks() {
                            acc.fold_at(off, c);
                            off += c.len();
                        }
                    }
                    Payload::from_vec(acc.current().to_vec())
                } else {
                    Payload::Phantom(unit)
                };
                h.send_one(
                    ly.parity_server(g),
                    Request::ParityWriteUnlock { hdr, group: g, intra: 0, payload: parity },
                )?
                .into_done()?;
                // 3. Conditional reclaim.
                let mut deferred = false;
                for &(srv, mirror, off, len, gen) in &guards {
                    let freed = h
                        .send_one(
                            srv,
                            Request::InvalidateOverflowRange {
                                hdr,
                                off,
                                len,
                                mirror,
                                if_generation: gen,
                            },
                        )?
                        .into_done()?;
                    if freed == 0 {
                        deferred = true;
                    } else if !mirror {
                        obs.add(Ctr::CleanerBytesReclaimed, freed);
                    }
                }
                obs.inc(Ctr::CleanerGroupsRewritten);
                if deferred {
                    obs.inc(Ctr::CleanerGroupsDeferred);
                }
                obs.observe(Hist::CleanerGroupNs, t0.elapsed().as_nanos() as u64);
            }
            file.compact_overflow()?;
            let after = file.storage_report()?.aggregate();
            reclaimed += (before.overflow + before.overflow_mirror)
                .saturating_sub(after.overflow + after.overflow_mirror);
        }
        obs.inc(Ctr::CleanerPasses);
        Ok(reclaimed)
    }

    /// Verify every parity group and mirror block of every file against
    /// the in-place data. Requires real (non-phantom) file contents and a
    /// quiescent cluster.
    pub fn scrub(&self) -> Result<ScrubReport, CsarError> {
        let client = self.client();
        let t0 = Instant::now();
        let mut report = ScrubReport::default();
        for meta in client.list_files()? {
            report.files += 1;
            if meta.size == 0 {
                continue;
            }
            let ly = meta.layout;
            let unit = ly.stripe_unit;
            match meta.scheme {
                Scheme::Raid1 => {
                    let last_block = ly.block_of(meta.size - 1);
                    for b in 0..=last_block {
                        let data = self.with_server(ly.home_server(b), |s| {
                            s.store().read(meta.fh, StreamKind::Data, ly.data_local_off(b, 0), unit)
                        });
                        let mirror = self.with_server(ly.mirror_server(b), |s| {
                            s.store().read(meta.fh, StreamKind::Mirror, ly.mirror_local_off(b, 0), unit)
                        });
                        report.mirrors_checked += 1;
                        if data != mirror {
                            report.bad_mirrors.push((meta.name.clone(), b));
                        }
                    }
                }
                s if s.uses_parity() => {
                    let groups = meta.size.div_ceil(ly.group_width_bytes());
                    // One reusable accumulator for the whole file: fold
                    // each block's chunks in place instead of copying
                    // every group member into a fresh Vec.
                    let mut acc = ParityAccumulator::new(unit as usize);
                    for g in 0..groups {
                        acc.reset_to(unit as usize);
                        let mut ok = true;
                        for b in ly.group_blocks(g) {
                            let p = self.with_server(ly.home_server(b), |srv| {
                                srv.store().read(meta.fh, StreamKind::Data, ly.data_local_off(b, 0), unit)
                            });
                            if !p.is_data() {
                                ok = false; // phantom data: cannot scrub
                                break;
                            }
                            let mut off = 0usize;
                            for c in p.chunks() {
                                acc.fold_at(off, c);
                                off += c.len();
                            }
                        }
                        if !ok {
                            continue;
                        }
                        let parity = self.with_server(ly.parity_server(g), |srv| {
                            srv.store().read(meta.fh, StreamKind::Parity, ly.parity_local_off(g, 0), unit)
                        });
                        if !parity.is_data() {
                            continue;
                        }
                        report.groups_checked += 1;
                        let mut off = 0usize;
                        let mut matches = parity.len() == unit;
                        for c in parity.chunks() {
                            if !matches {
                                break;
                            }
                            if acc.current()[off..off + c.len()] != c[..] {
                                matches = false;
                            }
                            off += c.len();
                        }
                        if !matches {
                            report.bad_groups.push((meta.name.clone(), g));
                        }
                    }
                }
                _ => {}
            }
        }
        let obs = self.obs();
        obs.add(Ctr::ScrubGroupsChecked, report.groups_checked);
        obs.add(Ctr::ScrubMirrorsChecked, report.mirrors_checked);
        obs.observe(Hist::ScrubNs, t0.elapsed().as_nanos() as u64);
        Ok(report)
    }
}
