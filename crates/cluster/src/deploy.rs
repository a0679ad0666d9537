//! Cluster lifecycle: spawn, failure injection, rebuild, shutdown.

use crate::client::{ClusterClient, Handle, TransportConfig};
use crate::node::{run_manager, run_server, SharedServer};
use crate::transport::{Mailbox, MgrMsg, ServerMsg};
use csar_core::manager::FileMeta;
use csar_core::proto::{ParityPart, ReqHeader, Request, Scheme, ServerId};
use csar_core::recovery::RebuildPlan;
use csar_core::manager::Manager;
use csar_core::server::{IoServer, ServerConfig, ServerImage};
use csar_core::{CsarError, Span};
use csar_obs::trace::{build_trees, TraceSpan};
use csar_obs::MetricsRegistry;
use csar_parity::ParityAccumulator;
use csar_store::{FromJson, Json, Payload, ToJson};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Completed trace trees the flight recorder retains (DESIGN.md §15).
/// Old enough ops fall off the back; a timeout dump therefore shows the
/// failed op *plus* the ops that competed with it for the same servers.
pub(crate) const FLIGHT_RING: usize = 32;

pub(crate) struct Inner {
    /// Each I/O server thread's request mailbox, by server ID.
    pub inboxes: Vec<Arc<Mailbox<ServerMsg>>>,
    pub mgr_inbox: Arc<Mailbox<MgrMsg>>,
    pub shared: Vec<SharedServer>,
    pub down: Vec<AtomicBool>,
    pub next_client: AtomicU32,
    pub servers: u32,
    pub transport: Mutex<TransportConfig>,
    /// Cluster-wide client-side metrics (engine, driver plan shape and
    /// reconstructions, per-op latency, cleaner/scrubber); each server
    /// keeps its own registry.
    pub obs: MetricsRegistry,
    /// Common time origin for every span timestamp in this cluster:
    /// client engines and server threads all report nanoseconds since
    /// this instant, so one op's spans stitch onto a single axis.
    pub epoch: Instant,
    /// Flight recorder: span sets of the most recent traced ops.
    pub flight: Mutex<VecDeque<Vec<TraceSpan>>>,
    /// The JSON body of the most recent flight-recorder dump (automatic
    /// on timeout, or on demand).
    pub last_dump: Mutex<Option<String>>,
}

impl Inner {
    /// Retain a completed op's spans in the flight-recorder ring.
    pub(crate) fn record_flight(&self, spans: Vec<TraceSpan>) {
        let mut ring = self.flight.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == FLIGHT_RING {
            ring.pop_front();
        }
        ring.push_back(spans);
    }

    /// Render the flight-recorder contents as a JSON document and retain
    /// it as the last dump. `server` names the server a timeout dump
    /// attributes the stall to.
    pub(crate) fn dump_flight(&self, reason: &str, server: Option<u32>) -> String {
        let trees: Vec<Json> = {
            let ring = self.flight.lock().unwrap_or_else(PoisonError::into_inner);
            ring.iter()
                .flat_map(|spans| build_trees(spans))
                .map(|t| t.to_json())
                .collect()
        };
        let body = Json::obj([
            ("reason", Json::from(reason)),
            ("server", server.map(Json::from).unwrap_or(Json::Null)),
            ("trees", Json::Arr(trees)),
        ])
        .to_pretty();
        let mut last = self.last_dump.lock().unwrap_or_else(PoisonError::into_inner);
        *last = Some(body.clone());
        body
    }
}

/// A running in-process CSAR cluster.
///
/// Spawns `n` I/O server threads and a manager thread. Cheap to share:
/// [`Cluster::client`] hands out independent client handles that can be
/// used from separate threads concurrently.
pub struct Cluster {
    pub(crate) inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Cluster {
    /// Spawn a cluster of `n` I/O servers with the given server tuning.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn spawn(n: u32, cfg: ServerConfig) -> Self {
        let engines = (0..n).map(|id| IoServer::new(id, cfg)).collect();
        Self::spawn_engines(engines, Manager::new())
    }

    fn spawn_engines(engines: Vec<IoServer>, mgr: Manager) -> Self {
        let n = engines.len() as u32;
        assert!(n > 0, "need at least one I/O server");
        let mut inboxes = Vec::with_capacity(n as usize);
        let mut shared = Vec::with_capacity(n as usize);
        let mut threads = Vec::with_capacity(n as usize + 1);
        let epoch = Instant::now();
        for engine in engines {
            let id = engine.id;
            let inbox = Arc::new(Mailbox::new());
            let engine: SharedServer = Arc::new(Mutex::new(engine));
            let (inbox2, engine2) = (Arc::clone(&inbox), Arc::clone(&engine));
            threads.push(std::thread::Builder::new()
                .name(format!("csar-iod-{id}"))
                .spawn(move || run_server(id, inbox2, engine2, epoch))
                .expect("spawn server thread"));
            inboxes.push(inbox);
            shared.push(engine);
        }
        let mgr_inbox = Arc::new(Mailbox::new());
        let mgr_inbox2 = Arc::clone(&mgr_inbox);
        threads.push(std::thread::Builder::new()
            .name("csar-mgr".into())
            .spawn(move || run_manager(mgr_inbox2, mgr))
            .expect("spawn manager thread"));
        Cluster {
            inner: Arc::new(Inner {
                inboxes,
                mgr_inbox,
                shared,
                down: (0..n).map(|_| AtomicBool::new(false)).collect(),
                next_client: AtomicU32::new(1),
                servers: n,
                transport: Mutex::new(TransportConfig::default()),
                obs: MetricsRegistry::new(),
                epoch,
                flight: Mutex::new(VecDeque::with_capacity(FLIGHT_RING)),
                last_dump: Mutex::new(None),
            }),
            threads: Mutex::new(threads),
        }
    }

    /// Persist the whole cluster — file metadata plus every server's
    /// durable state — as JSON files under `dir` (created if absent).
    ///
    /// The cluster must be quiescent (no in-flight operations).
    pub fn save_to(&self, dir: &std::path::Path) -> Result<(), CsarError> {
        let io = |e: std::io::Error| CsarError::Transport(format!("save: {e}"));
        std::fs::create_dir_all(dir).map_err(io)?;
        let metas = self.client().list_files()?;
        let mgr_json = Json::Arr(metas.iter().map(ToJson::to_json).collect()).to_string();
        std::fs::write(dir.join("manager.json"), mgr_json).map_err(io)?;
        for srv in 0..self.servers() {
            let image = self.with_server(srv, |s| s.export());
            let body = image.to_json().to_string();
            std::fs::write(dir.join(format!("server-{srv}.json")), body).map_err(io)?;
        }
        Ok(())
    }

    /// Reload a cluster previously written by [`Cluster::save_to`].
    /// Server count comes from the snapshot; caches start cold.
    pub fn load_from(dir: &std::path::Path, cfg: ServerConfig) -> Result<Cluster, CsarError> {
        let io = |e: std::io::Error| CsarError::Transport(format!("load: {e}"));
        let jerr = |e: csar_store::JsonError| CsarError::Transport(format!("load: {}", e.0));
        let mgr_body = std::fs::read_to_string(dir.join("manager.json")).map_err(io)?;
        let mgr_doc = Json::parse(&mgr_body).map_err(jerr)?;
        let metas: Vec<FileMeta> = mgr_doc
            .as_array()
            .ok_or_else(|| CsarError::Transport("load: manager.json must hold an array".into()))?
            .iter()
            .map(FileMeta::from_json)
            .collect::<Result<_, _>>()
            .map_err(jerr)?;
        let mut engines = Vec::new();
        for srv in 0u32.. {
            let path = dir.join(format!("server-{srv}.json"));
            if !path.exists() {
                break;
            }
            let body = std::fs::read_to_string(&path).map_err(io)?;
            let image = ServerImage::from_json(&Json::parse(&body).map_err(jerr)?).map_err(jerr)?;
            engines.push(IoServer::import(image, cfg));
        }
        if engines.is_empty() {
            return Err(CsarError::Transport(format!(
                "load: no server snapshots in {}",
                dir.display()
            )));
        }
        Ok(Self::spawn_engines(engines, Manager::import(metas)))
    }

    /// Number of I/O servers.
    pub fn servers(&self) -> u32 {
        self.inner.servers
    }

    /// A cheap handle sharing this cluster's transport (for daemons);
    /// it performs no thread management and never shuts the cluster
    /// down.
    pub(crate) fn clone_ref(&self) -> Cluster {
        Cluster { inner: Arc::clone(&self.inner), threads: Mutex::new(Vec::new()) }
    }

    /// A new independent client handle.
    pub fn client(&self) -> ClusterClient {
        ClusterClient::new(Handle::new(Arc::clone(&self.inner)))
    }

    /// The cluster-wide client-side metrics registry (engine transport,
    /// per-op latency, cleaner and scrubber counters). Server-side
    /// metrics live in each `IoServer`; scrape them with `GetStats` or
    /// merge everything via [`Cluster::metrics_snapshot`].
    pub fn obs(&self) -> &MetricsRegistry {
        &self.inner.obs
    }

    /// Turn metric recording on or off everywhere: the client-side
    /// registry (which also takes the drivers' counters) and every
    /// server's registry.
    pub fn set_metrics_enabled(&self, on: bool) {
        self.inner.obs.set_enabled(on);
        for srv in 0..self.servers() {
            self.with_server(srv, |s| s.obs.set_enabled(on));
        }
    }

    /// Turn causal tracing on or off everywhere: the client-side
    /// registry (which gates the engine's per-op tracer and the flight
    /// recorder) and every server's registry (which gates
    /// queue/lock/service span emission and piggybacking).
    ///
    /// Independent of [`Cluster::set_metrics_enabled`]: tracing defaults
    /// to off so the metrics-on hot path stays allocation-free.
    pub fn set_tracing(&self, on: bool) {
        self.inner.obs.set_tracing(on);
        for srv in 0..self.servers() {
            self.with_server(srv, |s| s.obs.set_tracing(on));
        }
    }

    /// Dump the flight recorder on demand: a JSON document holding the
    /// causal trace trees of the most recent traced operations. The same
    /// document is produced automatically (and kept — see
    /// [`Cluster::last_flight_dump`]) when an op fails with
    /// [`CsarError::Timeout`].
    pub fn dump_flight_recorder(&self) -> String {
        self.inner.dump_flight("on-demand", None)
    }

    /// The most recent flight-recorder dump, if any (automatic on
    /// timeout, or from [`Cluster::dump_flight_recorder`]).
    pub fn last_flight_dump(&self) -> Option<String> {
        self.inner.last_dump.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The raw span sets currently held by the flight recorder, most
    /// recent last (for exporters that want spans, not JSON).
    pub fn flight_spans(&self) -> Vec<Vec<csar_obs::trace::TraceSpan>> {
        let ring = self.inner.flight.lock().unwrap_or_else(PoisonError::into_inner);
        ring.iter().cloned().collect()
    }

    /// Hold server `id`'s engine mutex, stalling its service loop at the
    /// next dispatch until the guard is dropped. Tests use this to force
    /// a [`CsarError::Timeout`] attributable to a specific slow server —
    /// unlike [`Cluster::fail_server`], the server is *slow*, not down,
    /// so clients keep waiting on it.
    pub fn hold_server(&self, id: ServerId) -> MutexGuard<'_, IoServer> {
        self.inner.shared[id as usize].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One merged snapshot of every registry in the cluster: each
    /// server's (scraped via `GetStats` so the path any remote client
    /// would use stays exercised) and the cluster-wide client registry.
    pub fn metrics_snapshot(&self) -> Result<csar_obs::Snapshot, CsarError> {
        let client = self.client();
        let mut merged = csar_obs::Snapshot::default();
        for srv in 0..self.servers() {
            if self.inner.down[srv as usize].load(Ordering::SeqCst) {
                continue;
            }
            match client.handle().send_one(srv, Request::GetStats)? {
                csar_core::proto::Response::Stats { snapshot } => merged.merge(&snapshot),
                csar_core::proto::Response::Err(e) => return Err(e),
                other => {
                    return Err(CsarError::Protocol(format!("expected Stats, got {other:?}")))
                }
            }
        }
        merged.merge(&self.inner.obs.snapshot());
        Ok(merged)
    }

    /// Replace the transport tuning (in-flight window, reply deadline,
    /// retry policy) for all operations started after this call.
    pub fn set_transport_config(&self, cfg: TransportConfig) {
        *self.inner.transport.lock().unwrap_or_else(PoisonError::into_inner) = cfg;
    }

    /// Set just the per-request reply deadline (the full knob set is
    /// [`Cluster::set_transport_config`]). Tests use a short deadline so
    /// an unresponsive server surfaces as [`CsarError::Timeout`] quickly.
    pub fn set_reply_timeout(&self, timeout: std::time::Duration) {
        let mut t = self.inner.transport.lock().unwrap_or_else(PoisonError::into_inner);
        t.reply_timeout = timeout;
    }

    /// Mark a server fail-stopped: clients get `ServerDown` instead of
    /// service, and reads fall back to degraded mode.
    pub fn fail_server(&self, id: ServerId) {
        self.inner.down[id as usize].store(true, Ordering::SeqCst);
    }

    /// Bring a failed server back *with its old contents intact*
    /// (a transient outage, e.g. a reboot).
    ///
    /// Only safe if nothing was written while the server was down;
    /// degraded writes leave its contents stale, in which case use
    /// [`Cluster::rebuild_server`] instead.
    pub fn restore_server(&self, id: ServerId) {
        self.inner.down[id as usize].store(false, Ordering::SeqCst);
    }

    /// Replace a failed server with a blank one (new disk): wipes its
    /// state and marks it up. Use [`Cluster::rebuild_server`] to also
    /// restore contents from redundancy.
    pub fn replace_server(&self, id: ServerId) {
        self.inner.down[id as usize].store(false, Ordering::SeqCst);
        let client = self.client();
        client
            .handle()
            .send_one(id, Request::Wipe)
            .expect("wipe replacement server");
    }

    /// The first failed server, if any.
    pub fn failed_server(&self) -> Option<ServerId> {
        self.inner
            .down
            .iter()
            .position(|d| d.load(Ordering::SeqCst))
            .map(|i| i as u32)
    }

    /// Inspect a server's engine (store, cache, lock stats) in place.
    pub fn with_server<R>(&self, id: ServerId, f: impl FnOnce(&IoServer) -> R) -> R {
        let engine = self.inner.shared[id as usize].lock().unwrap_or_else(PoisonError::into_inner);
        f(&engine)
    }

    /// Offline rebuild: replace `failed` with a blank server and restore
    /// every file's lost pieces from redundancy (mirrors, parity groups,
    /// overflow mirrors). Fails with `DataLoss` if any RAID0 file has
    /// blocks on the failed server.
    pub fn rebuild_server(&self, failed: ServerId) -> Result<(), CsarError> {
        let client = self.client();
        let files = client.list_files()?;
        // RAID0 files with data there are unrecoverable; check before
        // touching anything.
        for meta in &files {
            if meta.scheme == Scheme::Raid0 && meta.size > 0 {
                let plan = RebuildPlan::for_file(meta, failed);
                if !plan.data_blocks.is_empty() {
                    return Err(CsarError::DataLoss(format!(
                        "RAID0 file '{}' had blocks on server {failed}",
                        meta.name
                    )));
                }
            }
        }
        self.replace_server(failed);
        for meta in &files {
            self.rebuild_file(&client, meta, failed)?;
        }
        Ok(())
    }

    fn rebuild_file(
        &self,
        client: &ClusterClient,
        meta: &FileMeta,
        failed: ServerId,
    ) -> Result<(), CsarError> {
        let ly = meta.layout;
        let unit = ly.stripe_unit;
        let hdr = ReqHeader::new(meta.fh, ly, meta.scheme);
        let plan = RebuildPlan::for_file(meta, failed);
        let h = client.handle();

        // --- lost data blocks ------------------------------------------------
        for &b in &plan.data_blocks {
            let len = unit.min(meta.size - b * unit);
            let span = Span { logical_off: b * unit, len };
            let content = match meta.scheme {
                Scheme::Raid0 => unreachable!("checked by caller"),
                Scheme::Raid1 => h
                    .send_one(ly.mirror_server(b), Request::ReadMirror { hdr, spans: vec![span] })?
                    .into_payload()?,
                _ => {
                    // XOR of the group's surviving in-place blocks + parity.
                    let g = ly.group_of_block(b);
                    let mut acc: Option<Payload> = None;
                    for other in ly.group_blocks(g).filter(|x| *x != b) {
                        let ospan = Span { logical_off: other * unit, len };
                        let p = h
                            .send_one(
                                ly.home_server(other),
                                Request::ReadData { hdr, spans: vec![ospan] },
                            )?
                            .into_payload()?;
                        match acc.as_mut() {
                            None => acc = Some(p),
                            Some(a) => a.xor_assign(&p),
                        }
                    }
                    let parity = h
                        .send_one(
                            ly.parity_server(g),
                            Request::ParityRead { hdr, group: g, intra: 0, len },
                        )?
                        .into_payload()?;
                    match acc {
                        None => parity,
                        Some(mut a) => {
                            a.xor_assign(&parity);
                            a
                        }
                    }
                }
            };
            h.send_one(
                failed,
                Request::WriteData {
                    hdr,
                    spans: vec![(span, content)],
                    invalidate_primary: false,
                    invalidate_mirror_spans: vec![],
                },
            )?
            .into_done()?;
        }

        // --- lost mirror blocks (RAID1) --------------------------------------
        for &b in &plan.mirror_blocks {
            let len = unit.min(meta.size - b * unit);
            let span = Span { logical_off: b * unit, len };
            let content = h
                .send_one(ly.home_server(b), Request::ReadData { hdr, spans: vec![span] })?
                .into_payload()?;
            h.send_one(failed, Request::WriteMirror { hdr, spans: vec![(span, content)] })?
                .into_done()?;
        }

        // --- lost parity blocks ----------------------------------------------
        let mut acc = ParityAccumulator::new(unit as usize);
        for &g in &plan.parity_groups {
            // Stream each surviving block's chunks straight into the
            // reusable accumulator — no per-block flattening copies.
            acc.reset_to(unit as usize);
            let mut phantom = false;
            for b in ly.group_blocks(g) {
                let span = Span { logical_off: b * unit, len: unit };
                let p = h
                    .send_one(ly.home_server(b), Request::ReadData { hdr, spans: vec![span] })?
                    .into_payload()?;
                if !p.is_data() {
                    phantom = true;
                    continue;
                }
                let mut off = 0usize;
                for c in p.chunks() {
                    acc.fold_at(off, c);
                    off += c.len();
                }
            }
            let parity = if phantom {
                Payload::Phantom(unit)
            } else {
                Payload::from_vec(acc.current().to_vec())
            };
            h.send_one(
                failed,
                Request::WriteParity {
                    hdr,
                    parts: vec![ParityPart { group: g, intra: 0, payload: parity }],
                    invalidate_mirror_spans: vec![],
                },
            )?
            .into_done()?;
        }

        // --- lost overflow logs (Hybrid) --------------------------------------
        // The next server's *mirror* table replicates our primary log; the
        // previous server's *primary* table is what our mirror log held.
        let next = (failed + 1) % ly.servers;
        let prev = (failed + ly.servers - 1) % ly.servers;
        for (lost, src, src_mirror, mirror) in [
            (plan.overflow_primary, next, true, false),
            (plan.overflow_mirror, prev, false, true),
        ] {
            if !lost {
                continue;
            }
            let entries = match h.send_one(src, Request::DumpOverflowTable { hdr, mirror: src_mirror })? {
                csar_core::proto::Response::Table { entries } => entries,
                csar_core::proto::Response::Err(e) => return Err(e),
                other => return Err(CsarError::Protocol(format!("expected Table, got {other:?}"))),
            };
            for e in entries {
                let span = Span { logical_off: e.logical_off, len: e.len };
                let runs = match h.send_one(
                    src,
                    Request::OverflowFetch { hdr, spans: vec![span], mirror: src_mirror },
                )? {
                    csar_core::proto::Response::Runs { runs } => runs,
                    csar_core::proto::Response::Err(e) => return Err(e),
                    other => {
                        return Err(CsarError::Protocol(format!("expected Runs, got {other:?}")))
                    }
                };
                for (off, payload) in runs {
                    let span = Span { logical_off: off, len: payload.len() };
                    h.send_one(failed, Request::OverflowWrite { hdr, spans: vec![(span, payload)], mirror })?
                        .into_done()?;
                }
            }
        }
        Ok(())
    }

    /// Stop all threads and join them.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Cluster {
    /// Stop and join the threads, also when the owner never called
    /// [`Cluster::shutdown`]. Non-owning handles (`clone_ref`, used by
    /// daemons) hold no thread handles and must not stop the cluster.
    fn drop(&mut self) {
        let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        if threads.is_empty() {
            return;
        }
        // Closing with the stop message queues nothing behind it: a
        // request sent from here on fails at once instead of timing out.
        for inbox in &self.inner.inboxes {
            inbox.close_with(ServerMsg::Shutdown);
        }
        self.inner.mgr_inbox.close_with(MgrMsg::Shutdown);
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Weak;

    #[test]
    fn dropping_a_cluster_without_shutdown_joins_every_thread() {
        let cluster = Cluster::spawn(3, ServerConfig::default());
        cluster.client().create("f", Scheme::Hybrid, 512).unwrap().write_at(0, &[1; 700]).unwrap();
        // Every server thread holds its engine and its mailbox, and the
        // manager thread its mailbox; the threads let go of them only
        // by exiting, so once `drop` returns none may be left alive.
        let inner = &cluster.inner;
        let engines: Vec<Weak<Mutex<IoServer>>> = inner.shared.iter().map(Arc::downgrade).collect();
        let inboxes: Vec<Weak<Mailbox<ServerMsg>>> = inner.inboxes.iter().map(Arc::downgrade).collect();
        let mgr = Arc::downgrade(&inner.mgr_inbox);
        drop(cluster);
        assert!(engines.iter().all(|w| w.strong_count() == 0), "a server thread outlived the drop");
        assert!(inboxes.iter().all(|w| w.strong_count() == 0), "a server thread outlived the drop");
        assert_eq!(mgr.strong_count(), 0, "the manager thread outlived the drop");
    }
}
