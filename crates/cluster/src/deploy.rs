//! Cluster lifecycle: spawn, failure injection, rebuild, shutdown.

use crate::client::{ClusterClient, Handle, TransportConfig};
use crate::node::{run_manager, SharedServer, Worker};
use crate::transport::{Mailbox, MgrMsg, ServerMsg};
use csar_core::client::maintain::Rebuild;
use csar_core::manager::{FileMeta, Manager};
use csar_core::proto::{Request, Response, ServerId};
use csar_core::server::{IoServer, ServerConfig, ServerImage};
use csar_core::CsarError;
use csar_obs::trace::{build_trees, TraceSpan};
use csar_obs::MetricsRegistry;
use csar_store::{FromJson, Json, ToJson};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Completed trace trees the flight recorder retains (DESIGN.md §15).
/// Old enough ops fall off the back; a timeout dump therefore shows the
/// failed op *plus* the ops that competed with it for the same servers.
pub(crate) const FLIGHT_RING: usize = 32;

/// Server workers at most: [`Cluster::spawn`] runs one per CPU, and
/// an op records the workers it must ring in one `u64`.
pub(crate) const MAX_WORKERS: usize = 64;

pub(crate) struct Inner {
    /// Each server worker's request mailbox; server `s` is hosted by
    /// worker `s % inboxes.len()` (see [`Inner::inbox_of`]).
    pub inboxes: Vec<Arc<Mailbox<ServerMsg>>>,
    /// Each server worker, served by its own thread or inline by a
    /// client op (`Worker::serve_inline`); `workers[w]` serves
    /// `inboxes[w]`.
    pub workers: Vec<Arc<Worker>>,
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
    /// Whether ops are traced: read by each client op as it begins and
    /// by each server worker per request; shared with the workers.
    pub tracing: Arc<AtomicBool>,
    /// Common time origin for every span timestamp in this cluster:
    /// client engines and server workers all report nanoseconds since
    /// this instant, so one op's spans stitch onto a single axis.
    pub epoch: Instant,
    /// Flight recorder: span sets of the most recent traced ops.
    pub flight: Mutex<VecDeque<Vec<TraceSpan>>>,
    /// The JSON body of the most recent flight-recorder dump (automatic
    /// on timeout, or on demand).
    pub last_dump: Mutex<Option<String>>,
}

impl Inner {
    /// The worker hosting server `srv`: its index into `inboxes`.
    pub(crate) fn inbox_of(&self, srv: ServerId) -> usize {
        srv as usize % self.inboxes.len()
    }

    /// The first failed server, if any.
    pub(crate) fn failed(&self) -> Option<ServerId> {
        self.down.iter().position(|d| d.load(Ordering::SeqCst)).map(|i| i as u32)
    }

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

/// One server worker per CPU this process may run on, but no more
/// workers than servers (nor than [`MAX_WORKERS`]). Pinned to one CPU,
/// every server shares one worker.
fn cpu_workers(servers: u32) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    cpus.min(servers as usize).clamp(1, MAX_WORKERS)
}

/// A running in-process CSAR cluster.
///
/// Runs `n` I/O server engines on one worker per CPU (at most one per
/// server) and a manager thread. Each worker has a thread of its own,
/// but an op serves the last worker it sends to on its own thread when
/// no other thread is serving it, so on one CPU a round trip costs no
/// thread handoff. Cheap to share:
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
        Self::spawn_engines(engines, Manager::new(), cpu_workers(n))
    }

    /// Start `engines` (server `i` is `engines[i]`) on `workers` server
    /// worker threads, server `s` on worker `s % workers`, and `mgr` on
    /// the manager thread.
    fn spawn_engines(engines: Vec<IoServer>, mgr: Manager, workers: usize) -> Self {
        let n = engines.len() as u32;
        assert!(n > 0, "need at least one I/O server");
        assert!((1..=MAX_WORKERS).contains(&workers), "1 to {MAX_WORKERS} server workers");
        let shared: Vec<SharedServer> = engines.into_iter().map(|e| Arc::new(Mutex::new(e))).collect();
        let inboxes: Vec<Arc<Mailbox<ServerMsg>>> = (0..workers).map(|_| Arc::new(Mailbox::new())).collect();
        let mut threads = Vec::with_capacity(workers + 1);
        let epoch = Instant::now();
        let tracing = Arc::new(AtomicBool::new(false));
        let hosts: Vec<Arc<Worker>> = (0..workers)
            .map(|w| {
                let hosted = shared.iter().skip(w).step_by(workers).map(Arc::clone).collect();
                Arc::new(Worker::new(hosted, workers as u32, epoch, Arc::clone(&tracing)))
            })
            .collect();
        for (w, (inbox, worker)) in inboxes.iter().zip(&hosts).enumerate() {
            let (inbox, worker) = (Arc::clone(inbox), Arc::clone(worker));
            threads.push(std::thread::Builder::new()
                .name(format!("csar-iod-w{w}"))
                .spawn(move || worker.run(&inbox))
                .expect("spawn server worker"));
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
                workers: hosts,
                mgr_inbox,
                shared,
                down: (0..n).map(|_| AtomicBool::new(false)).collect(),
                next_client: AtomicU32::new(1),
                servers: n,
                transport: Mutex::new(TransportConfig::default()),
                obs: MetricsRegistry::new(),
                tracing,
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
        let workers = cpu_workers(engines.len() as u32);
        Ok(Self::spawn_engines(engines, Manager::import(metas), workers))
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

    /// Turn causal tracing on or off for ops that begin afterwards: one
    /// flag, read by the clients (each traced op's span tree goes to the
    /// flight recorder) and by the server workers (queue/lock/service
    /// spans piggybacked on replies).
    ///
    /// Independent of [`Cluster::set_metrics_enabled`]: tracing defaults
    /// to off so the metrics-on hot path stays allocation-free.
    pub fn set_tracing(&self, on: bool) {
        self.inner.tracing.store(on, Ordering::Relaxed);
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

    /// Hold server `id`'s engine mutex, stalling the worker that hosts
    /// it at its next request for `id` until the guard is dropped; every
    /// other server on that worker stalls with it. An op never waits for
    /// a held engine on its own thread: it hands the request to the
    /// worker's thread, which waits, so the op's deadline runs as usual
    /// (even for an op on the guard's own thread). Tests use this to
    /// force a [`CsarError::Timeout`] attributable to a specific slow
    /// server — unlike [`Cluster::fail_server`], the server is *slow*,
    /// not down, so clients keep waiting on it.
    pub fn hold_server(&self, id: ServerId) -> MutexGuard<'_, IoServer> {
        self.inner.shared[id as usize].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One merged snapshot of every registry in the cluster: each
    /// server's (scraped via `GetStats` so the path any remote client
    /// would use stays exercised) and the cluster-wide client registry.
    pub fn metrics_snapshot(&self) -> Result<csar_obs::Snapshot, CsarError> {
        let up = (0..self.servers()).filter(|&srv| !self.inner.down[srv as usize].load(Ordering::SeqCst));
        let mut merged = csar_obs::Snapshot::default();
        for reply in self.client().handle().send_wave(up.map(|srv| (srv, Request::GetStats)).collect())? {
            match reply {
                Response::Stats { snapshot } => merged.merge(&snapshot),
                Response::Err(e) => return Err(e),
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
        let wiped = self.client().handle().send_wave(vec![(id, Request::Wipe)]);
        wiped.expect("wipe replacement server");
    }

    /// The first failed server, if any.
    pub fn failed_server(&self) -> Option<ServerId> {
        self.inner.failed()
    }

    /// Inspect a server's engine (store, cache, lock stats) in place.
    pub fn with_server<R>(&self, id: ServerId, f: impl FnOnce(&IoServer) -> R) -> R {
        f(&self.hold_server(id))
    }

    /// Replace `failed` with a blank server and restore every file's
    /// lost pieces from redundancy (mirrors, parity groups, overflow
    /// mirrors) with the csar-core [`Rebuild`] task. Fails with
    /// `DataLoss`, before touching anything, if any RAID0 file has blocks
    /// on the failed server.
    pub fn rebuild_server(&self, failed: ServerId) -> Result<(), CsarError> {
        let client = self.client();
        let rebuild = Rebuild::new(client.list_files()?, failed)?;
        self.replace_server(failed);
        client.handle().run_task(rebuild).map(drop)
    }

    /// Stop every worker and the manager thread, and join them.
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
    use crate::File;
    use csar_core::proto::Scheme;
    use std::sync::Weak;

    #[test]
    fn dropping_a_cluster_without_shutdown_joins_every_thread() {
        let cluster = Cluster::spawn(3, ServerConfig::default());
        cluster.client().create("f", Scheme::Hybrid, 512).unwrap().write_at(0, &[1; 700]).unwrap();
        // Every server worker holds its engines and its mailbox, and the
        // manager thread its mailbox; the threads let go of them only
        // by exiting, so once `drop` returns none may be left alive.
        let inner = &cluster.inner;
        let engines: Vec<Weak<Mutex<IoServer>>> = inner.shared.iter().map(Arc::downgrade).collect();
        let inboxes: Vec<Weak<Mailbox<ServerMsg>>> = inner.inboxes.iter().map(Arc::downgrade).collect();
        let mgr = Arc::downgrade(&inner.mgr_inbox);
        drop(cluster);
        assert!(engines.iter().all(|w| w.strong_count() == 0), "a server worker outlived the drop");
        assert!(inboxes.iter().all(|w| w.strong_count() == 0), "a server worker outlived the drop");
        assert_eq!(mgr.strong_count(), 0, "the manager thread outlived the drop");
    }

    /// Everything the mixed script observed: final bytes of each file,
    /// a degraded read of each, and the requests each op sent.
    #[derive(Debug, PartialEq)]
    struct Observed {
        bytes: Vec<Vec<u8>>,
        degraded: Vec<Vec<u8>>,
        requests: Vec<u64>,
    }

    /// RAID5 read-modify-write overwrites from 4 threads colliding on
    /// §5.1 parity locks, Hybrid 4 KiB overwrites, whole-group writes
    /// and degraded reads, on a 5-server cluster run by `workers`
    /// server workers. Checks every parity group before returning.
    fn mixed_script(workers: usize) -> Observed {
        use csar_store::SplitMix64;
        const UNIT: u64 = 4096;
        const REGION: usize = 64 * 1024;
        let engines = (0..5).map(|id| IoServer::new(id, ServerConfig { fs_block: 512, ..ServerConfig::default() }));
        let cluster = Cluster::spawn_engines(engines.collect(), Manager::new(), workers);
        let client = cluster.client();
        let mut rng = SplitMix64::new(7);
        let fill = |rng: &mut SplitMix64, len: usize| {
            let mut v = vec![0u8; len];
            rng.fill_bytes(&mut v);
            v
        };
        let mut requests = Vec::new();
        let write = |f: &File, off: u64, data: &[u8]| {
            let before = f.op_stats().requests;
            f.write_at(off, data).expect("write");
            f.op_stats().requests - before
        };
        let raid5 = client.create("raid5", Scheme::Raid5, UNIT).expect("create");
        let hybrid = client.create("hybrid", Scheme::Hybrid, UNIT).expect("create");
        let mut shadow = [fill(&mut rng, REGION), fill(&mut rng, REGION)];
        for (f, bytes) in [&raid5, &hybrid].into_iter().zip(&shadow) {
            for (g, group) in bytes.chunks(4 * UNIT as usize).enumerate() {
                requests.push(write(f, g as u64 * 4 * UNIT, group));
            }
        }
        // Four writers, each on its own 1 KiB of every block of the
        // region, so each group's parity lock sees them all.
        let rmw: Vec<Vec<u8>> = (0..4).map(|_| fill(&mut rng, REGION / 4)).collect();
        let before = raid5.op_stats().requests;
        std::thread::scope(|s| {
            for (t, data) in rmw.iter().enumerate() {
                let raid5 = &raid5;
                s.spawn(move || {
                    for (b, piece) in data.chunks(1024).enumerate() {
                        raid5.write_at(b as u64 * UNIT + t as u64 * 1024, piece).expect("rmw write");
                    }
                });
            }
        });
        requests.push(raid5.op_stats().requests - before);
        for (t, data) in rmw.iter().enumerate() {
            for (b, piece) in data.chunks(1024).enumerate() {
                let at = b * UNIT as usize + t * 1024;
                shadow[0][at..at + 1024].copy_from_slice(piece);
            }
        }
        for _ in 0..24 {
            let off = rng.gen_range(0..(REGION as u64 / UNIT)) * UNIT;
            let data = fill(&mut rng, UNIT as usize);
            requests.push(write(&hybrid, off, &data));
            shadow[1][off as usize..][..UNIT as usize].copy_from_slice(&data);
        }
        let read = |f: &File| f.read_at(0, REGION as u64).expect("read");
        let bytes: Vec<Vec<u8>> = [&raid5, &hybrid].map(read).into();
        assert_eq!(bytes, shadow, "{workers} workers: read-back differs from what was written");
        cluster.fail_server(2);
        let degraded = [&raid5, &hybrid].map(read).into();
        cluster.restore_server(2);
        for f in [&raid5, &hybrid] {
            let groups = f.size().div_ceil(f.meta().layout.group_width_bytes());
            let report = f.scrub().expect("scrub");
            assert!(report.is_clean(), "{workers} workers: {report:?}");
            assert_eq!(report.groups_checked, groups, "{workers} workers: every group holds real data");
        }
        Observed { bytes, degraded, requests }
    }

    /// A traced request's server queue wait starts when its client
    /// queues it. One worker hosts both servers and is stuck on server
    /// 0's held engine, so a read sent to server 1 meanwhile waits in
    /// the worker's mailbox: that wait is the read's `srv_queue`, nested
    /// in its `wire_rtt`.
    #[test]
    fn srv_queue_starts_when_the_client_queues_the_request() {
        use csar_obs::trace::{build_trees, Phase};
        use csar_obs::Gauge;
        use std::time::Duration;
        const UNIT: u64 = 512;
        const HOLD: Duration = Duration::from_millis(100);
        let engines = (0..2).map(|id| IoServer::new(id, ServerConfig::default())).collect();
        let cluster = Cluster::spawn_engines(engines, Manager::new(), 1);
        let f = cluster.client().create("queued", Scheme::Raid0, UNIT).expect("create");
        f.write_at(0, &[7; 2 * UNIT as usize]).expect("write");
        let layout = f.meta().layout;
        let block_on = |srv| (0..2).find(|&b| layout.home_server(b) == srv).expect("a block per server");
        let read = |srv| assert_eq!(f.read_at(block_on(srv) * UNIT, UNIT).expect("read"), [7; UNIT as usize]);
        // A request is in the worker's mailbox once the client counts
        // it in flight.
        let queued = |n| {
            while cluster.obs().gauge(Gauge::EngInFlight) < n {
                std::thread::yield_now();
            }
        };
        cluster.set_tracing(true);
        let guard = cluster.hold_server(0);
        std::thread::scope(|s| {
            s.spawn(|| read(0));
            queued(1);
            // Let the worker take server 0's read and stall on its engine
            // before the second read arrives (taken together, both
            // would wait in the backlog from the same moment).
            std::thread::sleep(Duration::from_millis(20));
            s.spawn(|| read(1));
            queued(2);
            std::thread::sleep(HOLD);
            drop(guard);
        });
        cluster.set_tracing(false);
        let flights = cluster.flight_spans();
        assert_eq!(flights.len(), 2, "both reads are traced");
        let rtt = flights
            .iter()
            .flat_map(|spans| build_trees(spans))
            .flat_map(|op| op.children)
            .find(|c| c.span.phase == Phase::WireRtt && c.span.aux == 1)
            .expect("the read of server 1");
        let queue = rtt.children.iter().find(|c| c.span.phase == Phase::SrvQueue).expect("srv_queue span");
        assert!(
            queue.span.dur_ns >= HOLD.as_nanos() as u64 / 2,
            "srv_queue {} ns must cover the wait behind the held worker ({HOLD:?})",
            queue.span.dur_ns
        );
        assert!(
            queue.span.start_ns >= rtt.span.start_ns && queue.span.end_ns() <= rtt.span.end_ns(),
            "srv_queue {:?} must nest in wire_rtt {:?}",
            queue.span,
            rtt.span
        );
    }

    /// Two workers host the five servers, so a fan-out rings one worker
    /// thread and serves the other on the op's own thread.
    #[test]
    fn one_worker_and_one_per_server_run_a_mixed_script_alike() {
        let one = mixed_script(1);
        assert_eq!(one.degraded, one.bytes, "a degraded read returns the written bytes");
        assert_eq!(mixed_script(2), one);
        assert_eq!(mixed_script(5), one);
    }

    /// On one idle worker an op serves its own request on its own
    /// thread. A request to a held server goes back to the worker's
    /// thread, uncounted, and completes once the guard drops.
    #[test]
    fn an_op_serves_an_idle_worker_on_its_own_thread() {
        use csar_obs::Ctr;
        const UNIT: u64 = 512;
        const OPS: u64 = 20;
        let engines = (0..2).map(|id| IoServer::new(id, ServerConfig::default())).collect();
        let cluster = Cluster::spawn_engines(engines, Manager::new(), 1);
        let f = cluster.client().create("inline", Scheme::Raid0, UNIT).expect("create");
        let inline = || {
            (0..2).map(|srv| cluster.with_server(srv, |s| s.obs.counter(Ctr::SrvServedInline))).sum::<u64>()
        };
        for i in 0..OPS {
            // One block: one request.
            f.write_at(i * UNIT, &[i as u8; UNIT as usize]).expect("write");
        }
        assert_eq!(f.op_stats().requests, OPS, "one request per op");
        assert_eq!(inline(), OPS, "every request served on its op's thread");
        // Nothing has woken the worker's thread yet: every request so far
        // was served inline. Only the hand-back below wakes it.
        let inbox = &cluster.inner.inboxes[0];
        while !inbox.has_waiter() {
            std::thread::yield_now();
        }
        let guard = cluster.hold_server(0);
        std::thread::scope(|s| {
            let read = s.spawn(|| f.read_at(0, UNIT).expect("read"));
            let t0 = std::time::Instant::now();
            while inbox.has_waiter() {
                assert!(
                    t0.elapsed().as_secs() < 10,
                    "the held server's request never reached the worker's thread"
                );
                std::thread::yield_now();
            }
            assert!(!read.is_finished(), "the held server cannot answer");
            drop(guard);
            assert_eq!(read.join().expect("reader"), [0; UNIT as usize]);
        });
        assert_eq!(inline(), OPS, "the held server's request went to the worker's thread");
    }
}
