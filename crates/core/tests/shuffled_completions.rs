//! Out-of-order completion coverage for the completion-driven drivers.
//!
//! The poll/completion contract promises that replies may be delivered
//! in ANY order. These tests enforce it: a seeded shuffling executor of
//! the completion engine runs reads and writes against real `IoServer`s
//! delivering each op's completions in a random permutation, and the
//! resulting on-disk state and read payloads must be byte-identical to
//! an in-order run ([`run_driver`]). The
//! engine's accounting must balance in any order, and on the failure
//! path: a reply arriving *after* its server has been marked down fails
//! the op, and a degraded retry must reconstruct the data.

use csar_core::client::engine::{EngineConfig, Executor, Note, OpEngine};
use csar_core::client::{run_driver, Completion, Effect, OpDriver, OpOutput, ReadDriver, Token, WriteDriver};
use csar_core::manager::FileMeta;
use csar_core::proto::{Request, Response, Scheme, ServerId};
use csar_core::server::ServerConfig;
use csar_core::{CsarError, Layout};
use csar_obs::{Ctr, MetricsRegistry};
use csar_store::{Payload, SplitMix64};

mod common;
use common::MiniCluster;

impl MiniCluster {
    fn write_in_order(&mut self, meta: &FileMeta, off: u64, data: &[u8]) {
        let mut d = WriteDriver::new(meta, off, Payload::from_vec(data.to_vec()));
        run_driver(&mut d, |s, r| Ok(self.exchange(s, r))).unwrap();
    }

    /// Write through the completion engine with a per-server `window`,
    /// delivering completions in a seed-determined random permutation.
    fn write_shuffled(&mut self, meta: &FileMeta, off: u64, data: &[u8], window: u32, rng: &mut SplitMix64) {
        let mut d = WriteDriver::new(meta, off, Payload::from_vec(data.to_vec()));
        run_engine(self, &mut d, window, |ready| rng.gen_usize(0..ready.len())).0.unwrap();
    }

    fn read_in_order(&mut self, meta: &FileMeta, off: u64, len: u64) -> Vec<u8> {
        let mut d = ReadDriver::new(meta, off, len, None);
        let out = run_driver(&mut d, |s, r| Ok(self.exchange(s, r))).unwrap();
        out.into_payload().as_bytes().unwrap().to_vec()
    }

    fn read_shuffled(
        &mut self,
        meta: &FileMeta,
        off: u64,
        len: u64,
        failed: Option<ServerId>,
        rng: &mut SplitMix64,
    ) -> Vec<u8> {
        let mut d = ReadDriver::new(meta, off, len, failed);
        let out = run_engine(self, &mut d, u32::MAX, |ready| rng.gen_usize(0..ready.len())).0.unwrap();
        out.into_payload().as_bytes().unwrap().to_vec()
    }
}

fn meta(scheme: Scheme, servers: u32, unit: u64) -> FileMeta {
    FileMeta { fh: 1, name: "s".into(), scheme, layout: Layout::new(servers, unit), size: 1 << 20 }
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
}

const SCHEMES: [Scheme; 5] =
    [Scheme::Raid0, Scheme::Raid1, Scheme::Raid5, Scheme::Raid5NoLock, Scheme::Hybrid];

/// Writes under shuffled completion delivery leave the cluster in the
/// exact state an in-order run produces, for every scheme. The update
/// is unaligned on purpose: a partial head, a full group in the middle
/// and a partial tail, so RMW parity reads, full-group computes and
/// (under Hybrid) overflow writes are all in flight together.
#[test]
fn shuffled_writes_match_in_order_state_for_all_schemes() {
    const SERVERS: u32 = 5;
    const UNIT: u64 = 16;
    let group = (SERVERS as u64 - 1) * UNIT; // RAID5 data bytes per group
    for scheme in SCHEMES {
        for seed in 0..16u64 {
            let m = meta(scheme, SERVERS, UNIT);
            let mut rng = SplitMix64::new(0x5EED_0000 + seed * 131 + scheme as u64);
            let mut reference = MiniCluster::new(SERVERS, ServerConfig::default());
            let mut shuffled = MiniCluster::new(SERVERS, ServerConfig::default());

            let base = pattern(3 * group as usize, 7);
            reference.write_in_order(&m, 0, &base);
            shuffled.write_in_order(&m, 0, &base);

            // Unaligned overwrite spanning partial head + full group + tail;
            // seeds 8.. run it again through a one-request window per server.
            let window = if seed < 8 { u32::MAX } else { 1 };
            let off = UNIT / 2;
            let data = pattern(group as usize + UNIT as usize + 5, 91);
            reference.write_in_order(&m, off, &data);
            shuffled.write_shuffled(&m, off, &data, window, &mut rng);

            let total = 3 * group;
            let want = reference.read_in_order(&m, 0, total);
            let got = shuffled.read_in_order(&m, 0, total);
            assert_eq!(got, want, "{scheme:?} seed {seed}: shuffled write diverged");

            // Reads are order-insensitive too (healthy and, where the
            // scheme supports it, degraded).
            let got = shuffled.read_shuffled(&m, 0, total, None, &mut rng);
            assert_eq!(got, want, "{scheme:?} seed {seed}: shuffled read diverged");
            if scheme != Scheme::Raid0 {
                let got = shuffled.read_shuffled(&m, 0, total, Some(2), &mut rng);
                assert_eq!(got, want, "{scheme:?} seed {seed}: shuffled degraded read diverged");
            }
        }
    }
}

/// The test cluster as an executor of the real completion engine: each
/// request is served at once (a down server answers `ServerDown`), but
/// its completion waits in `ready` until the test picks it. The
/// engine's accounting is counted the way the live cluster counts it.
struct Shuffler<'a> {
    c: &'a mut MiniCluster,
    ready: Vec<Ready>,
    obs: MetricsRegistry,
}

enum Ready {
    Reply(u64, Response),
    Compute(Token),
}

/// Records the token of every `Send` its driver emits, in order. The
/// engine transmits strictly FIFO and these runs never retry, so the
/// k-th request ID of an op carries the k-th token sent.
struct Recorder<'d>(&'d mut dyn OpDriver, Vec<Token>);

impl OpDriver for Recorder<'_> {
    fn poll(&mut self, c: Completion) -> Vec<Effect> {
        let effects = self.0.poll(c);
        let sends = effects.iter().filter_map(|e| match e {
            Effect::Send { token, .. } => Some(*token),
            _ => None,
        });
        self.1.extend(sends);
        effects
    }
}

impl Executor for Shuffler<'_> {
    fn now_ns(&mut self) -> u64 {
        0
    }

    fn send(&mut self, srv: ServerId, req: Request) -> Result<u64, CsarError> {
        let id = self.c.next_req;
        let resp = self.c.exchange(srv, req);
        self.obs.inc(Ctr::EngIssued);
        self.ready.push(Ready::Reply(id, resp));
        Ok(id)
    }

    fn compute(&mut self, token: Token, _bytes: u64) {
        self.ready.push(Ready::Compute(token));
    }

    fn note(&mut self, note: Note) {
        match note {
            Note::Delivered { .. } => self.obs.inc(Ctr::EngDelivered),
            Note::Retried | Note::TimedOut => unreachable!("this executor sets no deadline"),
            Note::Abandoned(n) => self.obs.add(Ctr::EngAbandoned, n),
            Note::WindowStall(_) => self.obs.inc(Ctr::EngWindowStalls),
            Note::Count(ctr, n) => self.obs.add(ctr, n),
        }
    }
}

/// Run `d` through the completion engine on `c` with a per-server
/// `window`, delivering the ready completion at the index `pick`
/// chooses each step. Returns the op's result and the engine
/// accounting snapshot. Every completion still
/// queued when the op ends is then delivered late, with its real token,
/// and must produce no effects: done or failed, the driver is inert.
fn run_engine(
    c: &mut MiniCluster,
    d: &mut dyn OpDriver,
    window: u32,
    mut pick: impl FnMut(&[Ready]) -> usize,
) -> (Result<OpOutput, CsarError>, csar_obs::Snapshot) {
    let cfg = EngineConfig { window, ..EngineConfig::default() };
    let first_id = c.next_req;
    let d = &mut Recorder(d, Vec::new());
    let mut ex = Shuffler { c, ready: Vec::new(), obs: MetricsRegistry::new() };
    let mut eng = OpEngine::default();
    let mut out = eng.begin(cfg, None, d, &mut ex);
    let res = loop {
        if let Some(res) = out {
            break res;
        }
        let i = pick(&ex.ready);
        out = match ex.ready.swap_remove(i) {
            Ready::Reply(id, resp) => eng.reply(id, resp, &[], d, &mut ex),
            Ready::Compute(token) => eng.compute_done(token, d, &mut ex),
        };
    };
    eng.finish(&mut ex, &mut Vec::new());
    for r in ex.ready.drain(..) {
        let late = match r {
            Ready::Reply(id, resp) => Completion::Reply { token: d.1[(id - first_id) as usize], resp },
            Ready::Compute(token) => Completion::ComputeDone { token },
        };
        assert!(d.0.poll(late).is_empty(), "late completion produced effects");
    }
    (res, ex.obs.snapshot())
}

/// The engine's accounting invariant, checked under shuffled delivery:
/// every transmitted request ends in exactly one of delivered,
/// retried-abandoned, timed-out or abandoned — no matter what order
/// completions land in, including replies still queued when the op
/// reports Done; seeds 8.. add a one-request window holding requests
/// back.
#[test]
fn completion_accounting_balances_in_any_order() {
    const SERVERS: u32 = 5;
    const UNIT: u64 = 16;
    let group = (SERVERS as u64 - 1) * UNIT;
    let mut stalls = 0;
    for scheme in SCHEMES {
        for seed in 0..16u64 {
            let m = meta(scheme, SERVERS, UNIT);
            let mut rng = SplitMix64::new(0xBA1A_0000 + seed * 131 + scheme as u64);
            let mut c = MiniCluster::new(SERVERS, ServerConfig::default());
            c.write_in_order(&m, 0, &pattern(3 * group as usize, 7));

            let data = pattern(group as usize + UNIT as usize + 5, 91);
            let mut d = WriteDriver::new(&m, UNIT / 2, Payload::from_vec(data));
            let window = if seed < 8 { u32::MAX } else { 1 };
            let (res, snap) = run_engine(&mut c, &mut d, window, |ready| rng.gen_usize(0..ready.len()));
            res.unwrap();
            stalls += snap.counter(Ctr::EngWindowStalls.name());
            assert!(snap.counter(Ctr::EngIssued.name()) > 0, "{scheme:?}: nothing issued");
            assert!(
                snap.engine_balanced(),
                "{scheme:?} seed {seed}: accounting unbalanced: {:?}",
                snap.counters
            );
        }
    }
    assert!(stalls > 0, "a one-request window must hold some request back");
}

/// When an op fails with replies still in flight, the engine abandons
/// them when the op is finished — and the balance invariant must still
/// hold, with a nonzero abandoned leg. The abandoned replies then reach
/// the failed driver late and are ignored.
#[test]
fn failed_op_abandons_inflight_replies_and_still_balances() {
    const SERVERS: u32 = 4;
    const UNIT: u64 = 16;
    let m = meta(Scheme::Raid5, SERVERS, UNIT);
    let total = 2 * 3 * UNIT;
    let mut c = MiniCluster::new(SERVERS, ServerConfig::default());
    c.write_in_order(&m, 0, &pattern(total as usize, 13));
    c.down[1] = true;

    // Deliver the dead server's error as soon as it is queued, so the
    // op fails while healthy replies are still in flight.
    let mut d = ReadDriver::new(&m, 0, total, None);
    let (res, snap) = run_engine(&mut c, &mut d, u32::MAX, |ready| {
        ready.iter().position(|r| matches!(r, Ready::Reply(_, Response::Err(_)))).unwrap_or(0)
    });
    assert!(res.is_err(), "reading through a down server must fail");
    assert!(snap.counter(Ctr::EngAbandoned.name()) > 0, "replies must still be in flight");
    assert!(snap.engine_balanced(), "accounting unbalanced: {:?}", snap.counters);

    // The same for a write: a partial head, a full group and a partial
    // tail, so RMW reads and whole-group writes are in flight together.
    let data = Payload::from_vec(pattern(3 * UNIT as usize + UNIT as usize, 29));
    let mut d = WriteDriver::new(&m, UNIT / 2, data);
    let (res, snap) = run_engine(&mut c, &mut d, u32::MAX, |ready| {
        ready.iter().position(|r| matches!(r, Ready::Reply(_, Response::Err(_)))).unwrap_or(0)
    });
    assert!(res.is_err(), "writing through a down server must fail");
    assert!(snap.counter(Ctr::EngAbandoned.name()) > 0, "replies must still be in flight");
    assert!(snap.engine_balanced(), "accounting unbalanced: {:?}", snap.counters);
}

/// `GetStats` returns the server's live registry, and the snapshot
/// survives a JSON round-trip bit-for-bit — the contract the `stats`
/// scrape tool relies on.
#[test]
fn get_stats_round_trips_a_server_snapshot() {
    use csar_store::{FromJson, Json, ToJson};
    const SERVERS: u32 = 4;
    const UNIT: u64 = 16;
    let m = meta(Scheme::Raid5, SERVERS, UNIT);
    let mut c = MiniCluster::new(SERVERS, ServerConfig::default());
    c.write_in_order(&m, 0, &pattern(3 * 3 * UNIT as usize, 5));

    let resp = c.exchange(0, Request::GetStats);
    let Response::Stats { snapshot } = resp else { panic!("expected Stats, got {resp:?}") };
    assert!(snapshot.counter("srv_requests") > 0, "the write must have been counted");
    assert!(snapshot.counter("srv_data_bytes") > 0, "data bytes must have been counted");

    let body = snapshot.to_json().to_pretty();
    let parsed = Json::parse(&body).expect("snapshot JSON parses");
    let back = csar_obs::Snapshot::from_json(&parsed).expect("snapshot JSON decodes");
    assert_eq!(back, snapshot, "snapshot must survive a JSON round-trip");
}

/// A reply that arrives after its server has been marked down: the op
/// in flight fails with `ServerDown` only once that reply is finally
/// delivered (every other completion lands first), late completions
/// are ignored, and a degraded retry reconstructs the lost block.
#[test]
fn late_server_down_reply_then_degraded_retry() {
    const SERVERS: u32 = 4;
    const UNIT: u64 = 16;
    let m = meta(Scheme::Raid5, SERVERS, UNIT);
    let total = 2 * 3 * UNIT; // two full groups
    let mut c = MiniCluster::new(SERVERS, ServerConfig::default());
    let base = pattern(total as usize, 13);
    c.write_in_order(&m, 0, &base);

    // Server 1 dies. A healthy-path read is already in flight: deliver
    // every good reply first, and the dead server's error LAST. The
    // engine abandons whatever is still queued behind the failure.
    c.down[1] = true;
    let mut d = ReadDriver::new(&m, 0, total, None);
    let (res, snap) = run_engine(&mut c, &mut d, u32::MAX, |ready| {
        ready.iter().position(|r| !matches!(r, Ready::Reply(_, Response::Err(_)))).unwrap_or(0)
    });
    match res {
        Err(CsarError::ServerDown(1)) => {}
        other => panic!("expected ServerDown(1), got {other:?}"),
    }
    assert!(snap.engine_balanced(), "accounting unbalanced: {:?}", snap.counters);

    // The caller marks server 1 down and retries degraded: every byte
    // comes back, the dead server's blocks via XOR reconstruction.
    let mut rng = SplitMix64::new(0xDE6D);
    let got = c.read_shuffled(&m, 0, total, Some(1), &mut rng);
    assert_eq!(got, base);
}
