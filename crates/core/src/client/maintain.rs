//! The maintenance tasks, each written once as a [`WaveTask`] that every
//! executor runs through the completion engine: the scrub, the §6.7
//! cleaner pass and the rebuild of a replaced server.

use super::waves::{Wave, WaveTask};
use super::Effect;
use crate::error::CsarError;
use crate::layout::Span;
use crate::manager::FileMeta;
use crate::proto::{ParityPart, ReqHeader, Request, Response, Scheme, ServerId};
use crate::recovery::RebuildPlan;
use csar_obs::{Ctr, Hist};
use csar_store::Payload;

/// Groups (or RAID1 blocks) one scrub wave checks.
const SCRUB_WAVE: usize = 64;

fn header(m: &FileMeta) -> ReqHeader {
    ReqHeader::new(m.fh, m.layout, m.scheme)
}

/// `req` to every server, for file `m`.
fn everywhere(m: &FileMeta, req: impl Fn(ReqHeader) -> Request) -> impl Iterator<Item = (ServerId, Request)> {
    let hdr = header(m);
    (0..hdr.layout.servers).map(move |srv| (srv, req(hdr)))
}

fn unexpected(got: Option<Response>) -> CsarError {
    match got {
        Some(Response::Err(e)) => e,
        other => CsarError::Protocol(format!("unexpected maintenance reply {other:?}")),
    }
}

fn all_done(replies: impl IntoIterator<Item = Response>) -> Result<(), CsarError> {
    replies.into_iter().try_for_each(|r| r.into_done().map(drop))
}

/// The XOR of the next `n` payload replies.
fn fold(replies: &mut impl Iterator<Item = Response>, n: usize) -> Result<Payload, CsarError> {
    let mut acc = replies.next().ok_or_else(|| unexpected(None))?.into_payload()?;
    for r in replies.take(n - 1) {
        acc.xor_assign(&r.into_payload()?);
    }
    Ok(acc)
}

/// What a scrub found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// Checks each parity group of `[0, size)` of each file (`ReadData` of
/// its blocks against `ParityRead`) and each RAID1 block (`ReadData`
/// against `ReadMirror`). A group or block with a piece on the failed
/// server, or with phantom contents, cannot be verified and is not
/// counted. It takes no lock and writes nothing, so a group written
/// meanwhile may be reported falsely: scrub files no one is writing.
/// Reports in `report`, the `scrub_*` counters and `scrub_ns`.
pub struct Scrub {
    files: Vec<FileMeta>,
    failed: Option<ServerId>,
    /// The file being scrubbed and its next group (RAID1: block).
    file: usize,
    next: u64,
    /// The groups (or blocks) the wave in flight reads.
    reading: Vec<u64>,
    /// What the scrub found.
    pub report: ScrubReport,
}

impl Scrub {
    /// A scrub of `files`, around the `failed` server.
    pub fn new(files: Vec<FileMeta>, failed: Option<ServerId>) -> Self {
        let report = ScrubReport { files: files.len(), ..ScrubReport::default() };
        Self { files, failed, file: 0, next: 0, reading: Vec::new(), report } // alloc-ok: maintenance, once per scrub
    }

    /// How many groups (RAID1: blocks) of `m` carry redundancy, and how
    /// many reads check one: its data blocks, then the copy they must
    /// match.
    fn shape(m: &FileMeta) -> (u64, usize) {
        let ly = m.layout;
        match m.scheme {
            Scheme::Raid1 => (m.size.div_ceil(ly.stripe_unit), 2),
            s if s.uses_parity() => (m.size.div_ceil(ly.group_width_bytes()), ly.group_width_blocks() as usize + 1),
            _ => (0, 0),
        }
    }

    fn reads(m: &FileMeta, u: u64, wave: &mut Wave) {
        let (ly, hdr, unit) = (m.layout, header(m), m.layout.stripe_unit);
        let spans = |b: u64| vec![Span { logical_off: b * unit, len: unit }];
        let read = |b: u64| (ly.home_server(b), Request::ReadData { hdr, spans: spans(b) });
        if m.scheme == Scheme::Raid1 {
            wave.extend([read(u), (ly.mirror_server(u), Request::ReadMirror { hdr, spans: spans(u) })]);
        } else {
            wave.extend(ly.group_blocks(u).map(read));
            wave.push((ly.parity_server(u), Request::ParityRead { hdr, group: u, intra: 0, len: unit }));
        }
    }
}

impl WaveTask for Scrub {
    fn next(&mut self, replies: Vec<Response>, fx: &mut Vec<Effect>) -> Result<Wave, CsarError> {
        let mut replies = replies.into_iter();
        for u in self.reading.drain(..) {
            let m = &self.files[self.file];
            let expected = fold(&mut replies, Self::shape(m).1 - 1)?;
            let copy = replies.next().ok_or_else(|| unexpected(None))?.into_payload()?;
            if !(expected.is_data() && copy.is_data()) {
                continue; // phantom contents cannot be verified
            }
            let r = &mut self.report;
            let (checked, bad) = match m.scheme {
                Scheme::Raid1 => (&mut r.mirrors_checked, &mut r.bad_mirrors),
                _ => (&mut r.groups_checked, &mut r.bad_groups),
            };
            *checked += 1;
            if expected != copy {
                bad.push((m.name.clone(), u));
            }
        }
        let mut wave = Vec::new(); // alloc-ok: maintenance, one request list per scrub wave
        while let Some(m) = self.files.get(self.file) {
            while self.next < Self::shape(m).0 && self.reading.len() < SCRUB_WAVE {
                let from = wave.len();
                Self::reads(m, self.next, &mut wave);
                if wave[from..].iter().any(|(srv, _)| Some(*srv) == self.failed) {
                    wave.truncate(from);
                } else {
                    self.reading.push(self.next);
                }
                self.next += 1;
            }
            if !wave.is_empty() {
                return Ok(wave);
            }
            (self.file, self.next) = (self.file + 1, 0);
        }
        let r = &self.report;
        for (ctr, n) in [
            (Ctr::ScrubGroupsChecked, r.groups_checked),
            (Ctr::ScrubMirrorsChecked, r.mirrors_checked),
            (Ctr::ScrubBadGroups, r.bad_groups.len() as u64),
            (Ctr::ScrubBadMirrors, r.bad_mirrors.len() as u64),
        ] {
            fx.push(Effect::Count { ctr, n });
        }
        fx.push(Effect::Observe { hist: Hist::ScrubNs });
        Ok(wave)
    }
}

/// The step of a cleaner pass whose replies the next wave carries.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CleanStep {
    Begin,
    Usage,
    Query,
    Lock,
    Read,
    Reclaim,
    Compact,
}

/// A group the cleaner examines: per block copy its server, table
/// (`true`: mirror), range and, once queried, sampled generation.
struct Dirty {
    group: u64,
    guards: Vec<(ServerId, bool, u64, u64, u64)>,
}

/// One §6.7 cleaning pass over every Hybrid file. Per group:
///
/// 1. **Ranged liveness query**: one `OverflowQuery` per block copy
///    (primary and mirror), clipped to the group, so only groups with
///    live overflow are rewritten. The table generation it returns is
///    the reclaim guard.
/// 2. **Locked rewrite**: take the group's §5.1 parity lock, read the
///    latest contents (`ReadLatest`), write them back in place without
///    invalidating, and publish fresh parity with the unlock-write. A
///    tail group is clipped to EOF; its parity covers the zero-extended
///    group, as holes read as zeros.
/// 3. **Conditional reclaim**: `InvalidateOverflowRange` with the
///    sampled generation. If a partial write raced the rewrite the server
///    declines: its newer overflow entry keeps masking the stale in-place
///    bytes, and the reclaim waits for the next pass.
///
/// Then the file's logs are compacted. Whole-group writers stay
/// last-writer-wins against the rewrite, as two racing whole-group
/// writes always are under Hybrid. Counts the `cleaner_*` counters and
/// one `cleaner_group_ns` per rewritten group.
pub struct Clean<'h> {
    files: Vec<FileMeta>,
    /// Called with each dirty group once its latest contents are read,
    /// before they are written back.
    mid_rewrite: &'h mut dyn FnMut(u64),
    file: usize,
    step: CleanStep,
    /// The file's overflow bytes before the pass, and its next group.
    before: u64,
    group: u64,
    /// The file's dirty groups in lock order; the last is in hand.
    dirty: Vec<Dirty>,
    /// The latest contents' spans per home server, as requested.
    reading: Vec<(ServerId, Vec<Span>)>,
    /// Waves sent in turn (last first) once the one in flight is all
    /// done: a group's unlock-write, then its reclaim.
    then: Vec<Wave>,
    /// Overflow bytes the pass reclaimed.
    pub reclaimed: u64,
}

impl<'h> Clean<'h> {
    /// A pass over the Hybrid files among `files`.
    pub fn new(files: Vec<FileMeta>, mid_rewrite: &'h mut dyn FnMut(u64)) -> Self {
        let (step, before, group, reclaimed) = (CleanStep::Begin, 0, 0, 0);
        // alloc-ok: maintenance, once per pass
        let (dirty, reading, then) = (Vec::new(), Vec::new(), Vec::new());
        Self { files, mid_rewrite, file: 0, step, before, group, dirty, reading, then, reclaimed }
    }

    /// The usage query of the next non-empty Hybrid file, or the end.
    fn start_file(&mut self, fx: &mut Vec<Effect>) -> Wave {
        while self.files.get(self.file).is_some_and(|m| m.scheme != Scheme::Hybrid || m.size == 0) {
            self.file += 1;
        }
        let Some(m) = self.files.get(self.file) else {
            fx.push(Effect::Count { ctr: Ctr::CleanerPasses, n: 1 });
            return Wave::new();
        };
        (self.step, self.group) = (CleanStep::Usage, 0);
        self.dirty.clear();
        everywhere(m, |hdr| Request::GetUsage { hdr }).collect()
    }

    /// The next group's liveness queries; past the last group, the
    /// compaction and the usage query (a server serves them in order).
    fn query(&mut self, fx: &mut Vec<Effect>) -> Wave {
        let m = &self.files[self.file];
        let (ly, hdr, unit) = (m.layout, header(m), m.layout.stripe_unit);
        if self.group == m.size.div_ceil(ly.group_width_bytes()) {
            self.step = CleanStep::Compact;
            let usage = everywhere(m, |hdr| Request::GetUsage { hdr });
            return everywhere(m, |hdr| Request::CompactOverflow { hdr }).chain(usage).collect();
        }
        fx.push(Effect::Count { ctr: Ctr::CleanerGroupsScanned, n: 1 });
        let blocks = ly.group_blocks(self.group).take_while(|b| b * unit < m.size);
        let guards: Vec<_> = blocks
            .flat_map(|b| {
                let (off, len) = (b * unit, unit.min(m.size - b * unit));
                [(ly.home_server(b), false, off, len, 0), (ly.mirror_server(b), true, off, len, 0)]
            })
            .collect();
        let query = |&(srv, mirror, off, len, _): &(ServerId, bool, u64, u64, u64)| {
            (srv, Request::OverflowQuery { hdr, off, len, mirror })
        };
        let wave = guards.iter().map(query).collect();
        self.dirty.push(Dirty { group: self.group, guards });
        self.step = CleanStep::Query;
        wave
    }

    /// The overflow bytes the usage replies report.
    fn overflow(replies: impl Iterator<Item = Response>) -> Result<u64, CsarError> {
        replies.map(|r| r.into_usage().map(|u| u.overflow + u.overflow_mirror)).sum()
    }
}

impl WaveTask for Clean<'_> {
    fn next(&mut self, replies: Vec<Response>, fx: &mut Vec<Effect>) -> Result<Wave, CsarError> {
        if self.step == CleanStep::Begin {
            return Ok(self.start_file(fx));
        }
        if let Some(wave) = self.then.pop() {
            all_done(replies)?;
            return Ok(wave);
        }
        let m = &self.files[self.file];
        let (ly, hdr, unit, g) = (m.layout, header(m), m.layout.stripe_unit, self.group);
        let guards = self.dirty.last().map_or(&[][..], |d| &d.guards[..]);
        let mut replies = replies.into_iter();
        match self.step {
            CleanStep::Begin => Ok(Wave::new()),
            CleanStep::Usage => {
                self.before = Self::overflow(replies)?;
                if self.before == 0 {
                    self.file += 1;
                    return Ok(self.start_file(fx));
                }
                Ok(self.query(fx))
            }
            CleanStep::Query => {
                let mut live = Vec::with_capacity(guards.len());
                for (&guard, r) in guards.iter().zip(replies) {
                    let Response::OverflowStatus { live_bytes, generation } = r else { return Err(unexpected(Some(r))) };
                    if live_bytes > 0 {
                        live.push((guard.0, guard.1, guard.2, guard.3, generation));
                    }
                }
                let Some(d) = self.dirty.last_mut().filter(|_| !live.is_empty()) else {
                    self.dirty.pop();
                    self.group += 1;
                    return Ok(self.query(fx));
                };
                d.guards = live;
                debug_assert!(
                    self.dirty.windows(2).all(|w| w[0].group < w[1].group),
                    "the cleaner takes parity locks one at a time, in ascending group order (§5.1)"
                );
                fx.push(Effect::Mark);
                self.step = CleanStep::Lock;
                Ok(vec![(ly.parity_server(g), Request::ParityReadLock { hdr, group: g, intra: 0, len: unit })])
            }
            CleanStep::Lock => {
                replies.next().ok_or_else(|| unexpected(None))?.into_payload()?;
                let (go, glen) = ly.group_byte_range(g);
                self.reading = ly.spans_by_server(go, glen.min(m.size - go));
                self.step = CleanStep::Read;
                let read = |(srv, spans): &(ServerId, Vec<Span>)| (*srv, Request::ReadLatest { hdr, spans: spans.clone() });
                Ok(self.reading.iter().map(read).collect())
            }
            CleanStep::Read => {
                (self.mid_rewrite)(g);
                // Phantom data makes the parity phantom.
                let mut parity = Payload::zeros(unit as usize);
                let mut wave = Wave::with_capacity(self.reading.len());
                for ((srv, spans), r) in self.reading.drain(..).zip(replies) {
                    let (latest, mut at) = (r.into_payload()?, 0);
                    let mut split = |s: Span| {
                        let p = latest.slice(at, s.len);
                        at += s.len;
                        parity.xor_at(s.logical_off % unit, &p);
                        (s, p)
                    };
                    let spans = spans.into_iter().map(&mut split).collect();
                    wave.push((srv, Request::WriteData { hdr, spans, invalidate_primary: false, invalidate_mirror_spans: vec![] }));
                }
                let reclaim = |&(srv, mirror, off, len, if_generation): &(ServerId, bool, u64, u64, u64)| {
                    (srv, Request::InvalidateOverflowRange { hdr, off, len, mirror, if_generation })
                };
                let unlock = Request::ParityWriteUnlock { hdr, group: g, intra: 0, payload: parity };
                self.then = vec![guards.iter().map(reclaim).collect(), vec![(ly.parity_server(g), unlock)]];
                self.step = CleanStep::Reclaim;
                Ok(wave)
            }
            CleanStep::Reclaim => {
                let mut deferred = false;
                for (&(_, mirror, ..), r) in guards.iter().zip(replies) {
                    match r.into_done()? {
                        0 => deferred = true,
                        n if !mirror => fx.push(Effect::Count { ctr: Ctr::CleanerBytesReclaimed, n }),
                        _ => {}
                    }
                }
                fx.push(Effect::Count { ctr: Ctr::CleanerGroupsRewritten, n: 1 });
                if deferred {
                    fx.push(Effect::Count { ctr: Ctr::CleanerGroupsDeferred, n: 1 });
                }
                fx.push(Effect::Observe { hist: Hist::CleanerGroupNs });
                self.group += 1;
                Ok(self.query(fx))
            }
            CleanStep::Compact => {
                all_done(replies.by_ref().take(ly.servers as usize))?;
                self.reclaimed += self.before.saturating_sub(Self::overflow(replies)?);
                self.file += 1;
                Ok(self.start_file(fx))
            }
        }
    }
}

/// A piece a rebuild restores from the replies to its reads.
enum Lost {
    /// A data block: the XOR of this many replies (the RAID1 mirror
    /// copy, or the group's parity and surviving blocks).
    Data(Span, usize),
    /// A RAID1 mirror block, copied from its primary.
    Mirror(Span),
    /// A parity block: the XOR of the group's data blocks.
    Parity(u64),
    /// An overflow log (`true`: the mirror log), replayed from the table
    /// the neighbour dumped.
    Log(ServerId, bool),
}

/// Restores the failed server's pieces of each file ([`RebuildPlan`])
/// onto its blank replacement: data blocks from mirrors or parity, RAID1
/// mirror blocks from their primaries, parity from the group's data and
/// Hybrid overflow logs from the neighbours' copies. Per file it sends
/// up to three waves: every read of surviving copies; every write to the
/// replacement, with the overflow fetches; the overflow replays.
pub struct Rebuild {
    files: Vec<FileMeta>,
    failed: ServerId,
    /// The file being rebuilt, and its step: 0 reads, 1 writes, 2
    /// replays, 3 checks the replays.
    file: usize,
    step: u8,
    /// What the read wave in flight restores, in request order.
    lost: Vec<Lost>,
    /// The writes heading the write wave; the overflow fetches follow,
    /// each with the log (`true`: mirror) its runs restore.
    writes: usize,
    fetches: Vec<bool>,
}

impl Rebuild {
    /// A rebuild of `failed` for `files`. Fails with `DataLoss`, before
    /// anything is sent, if a RAID0 file had blocks there.
    pub fn new(files: Vec<FileMeta>, failed: ServerId) -> Result<Self, CsarError> {
        let lost = |m: &FileMeta| !RebuildPlan::for_file(m, failed).data_blocks.is_empty();
        if let Some(m) = files.iter().find(|m| m.scheme == Scheme::Raid0 && lost(m)) {
            return Err(CsarError::DataLoss(format!("RAID0 file '{}' had blocks on server {failed}", m.name)));
        }
        let (lost, fetches) = (Vec::new(), Vec::new()); // alloc-ok: maintenance, once per rebuild
        Ok(Self { files, failed, file: 0, step: 0, lost, writes: 0, fetches })
    }

    fn reads(&mut self, m: &FileMeta) -> Wave {
        let (ly, hdr, unit) = (m.layout, header(m), m.layout.stripe_unit);
        let plan = RebuildPlan::for_file(m, self.failed);
        let span = |b: u64, len: u64| Span { logical_off: b * unit, len };
        let read = |b: u64, len: u64| (ly.home_server(b), Request::ReadData { hdr, spans: vec![span(b, len)] });
        let tail = |b: u64| unit.min(m.size - b * unit);
        let mut wave = Vec::new(); // alloc-ok: maintenance, one request list per file
        for &b in &plan.data_blocks {
            if m.scheme == Scheme::Raid1 {
                wave.push((ly.mirror_server(b), Request::ReadMirror { hdr, spans: vec![span(b, tail(b))] }));
                self.lost.push(Lost::Data(span(b, tail(b)), 1));
            } else {
                let (g, len) = (ly.group_of_block(b), tail(b));
                wave.push((ly.parity_server(g), Request::ParityRead { hdr, group: g, intra: 0, len }));
                wave.extend(ly.group_blocks(g).filter(|&x| x != b).map(|x| read(x, len)));
                self.lost.push(Lost::Data(span(b, len), ly.group_width_blocks() as usize));
            }
        }
        for &b in &plan.mirror_blocks {
            wave.push(read(b, tail(b)));
            self.lost.push(Lost::Mirror(span(b, tail(b))));
        }
        for &g in &plan.parity_groups {
            wave.extend(ly.group_blocks(g).map(|b| read(b, unit)));
            self.lost.push(Lost::Parity(g));
        }
        // The next server's mirror table replicates the lost primary log;
        // the previous server's primary table is what the lost mirror log
        // held.
        let n = ly.servers;
        let logs = [(plan.overflow_primary, (self.failed + 1) % n, false), (plan.overflow_mirror, (self.failed + n - 1) % n, true)];
        for (_, src, mirror) in logs.into_iter().filter(|l| l.0) {
            wave.push((src, Request::DumpOverflowTable { hdr, mirror: !mirror }));
            self.lost.push(Lost::Log(src, mirror));
        }
        wave
    }

    fn writes(&mut self, m: &FileMeta, replies: Vec<Response>) -> Result<Wave, CsarError> {
        let (hdr, group_blocks) = (header(m), m.layout.group_width_blocks() as usize);
        let mut replies = replies.into_iter();
        let (mut wave, mut fetch) = (Vec::new(), Vec::new()); // alloc-ok: maintenance, the writes and fetches of one file
        for lost in self.lost.drain(..) {
            let req = match lost {
                Lost::Data(span, n) => {
                    let spans = vec![(span, fold(&mut replies, n)?)];
                    Request::WriteData { hdr, spans, invalidate_primary: false, invalidate_mirror_spans: vec![] }
                }
                Lost::Mirror(span) => Request::WriteMirror { hdr, spans: vec![(span, fold(&mut replies, 1)?)] },
                Lost::Parity(group) => {
                    let parts = vec![ParityPart { group, intra: 0, payload: fold(&mut replies, group_blocks)? }];
                    Request::WriteParity { hdr, parts, invalidate_mirror_spans: vec![] }
                }
                Lost::Log(src, mirror) => {
                    let Some(Response::Table { entries }) = replies.next() else { return Err(unexpected(None)) };
                    self.fetches.extend(entries.iter().map(|_| mirror));
                    fetch.extend(entries.into_iter().map(|e| {
                        let spans = vec![Span { logical_off: e.logical_off, len: e.len }];
                        (src, Request::OverflowFetch { hdr, spans, mirror: !mirror })
                    }));
                    continue;
                }
            };
            wave.push((self.failed, req));
        }
        self.writes = wave.len();
        wave.append(&mut fetch);
        Ok(wave)
    }

    fn replays(&mut self, m: &FileMeta, replies: Vec<Response>) -> Result<Wave, CsarError> {
        let mut replies = replies.into_iter();
        all_done(replies.by_ref().take(self.writes))?;
        let mut wave = Vec::new(); // alloc-ok: maintenance, the overflow replays of one file
        for (mirror, r) in self.fetches.drain(..).zip(replies) {
            let Response::Runs { runs } = r else { return Err(unexpected(Some(r))) };
            wave.extend(runs.into_iter().map(|(off, payload)| {
                let spans = vec![(Span { logical_off: off, len: payload.len() }, payload)];
                (self.failed, Request::OverflowWrite { hdr: header(m), spans, mirror })
            }));
        }
        Ok(wave)
    }
}

impl WaveTask for Rebuild {
    fn next(&mut self, mut replies: Vec<Response>, _fx: &mut Vec<Effect>) -> Result<Wave, CsarError> {
        while let Some(m) = self.files.get(self.file).cloned() {
            let replies = std::mem::take(&mut replies);
            let wave = match self.step {
                0 => self.reads(&m),
                1 => self.writes(&m, replies)?,
                2 => self.replays(&m, replies)?,
                _ => {
                    all_done(replies)?;
                    self.file += 1;
                    Wave::new()
                }
            };
            self.step = (self.step + 1) % 4;
            if !wave.is_empty() {
                return Ok(wave);
            }
        }
        Ok(Wave::new())
    }
}
