//! An exhaustive-interleaving model checker for the §5.1 parity-lock
//! protocol.
//!
//! Loom-style, but in-repo and dependency-free: writers are small step
//! programs executed against the *real*
//! [`csar_core::locks::ParityLockTable`]. A batch writer is one thread
//! (acquire parity locks in a declared group order, then
//! read-XOR-write each group's parity, then release); a PR 2
//! *pipelined* writer is one lane per group whose acquire is issued by
//! the previous group's grant, so several groups are in flight — and
//! several grants held — at once, exactly like the completion-driven
//! `WriteDriver`. A depth-first
//! scheduler enumerates every interleaving by prefix replay: each run
//! re-executes from a fresh state following a recorded choice prefix,
//! then extends it greedily; backtracking increments the last
//! non-exhausted choice point. State never needs to be cloned, and the
//! exploration is exhaustive and deterministic.
//!
//! Parity is abstracted to one XOR accumulator per group and each writer
//! contributes a unique token, so a *lost update* (the RAID5 write hole:
//! two read-modify-writes interleaving read-read-write-write) is visible
//! as a missing token in the terminal parity value. The checker verifies
//! four properties on every schedule:
//!
//! 1. **No lost parity update** — terminal parity of each group equals
//!    the XOR of all tokens of writers that updated it.
//! 2. **FIFO handoff** — the table wakes queued waiters in arrival
//!    order (checked against a shadow queue).
//! 3. **No deadlock** — some writer can always step until all finish.
//! 4. **Quiescence** — the lock table is empty when all writers finish.
//!
//! Three self-test scenarios prove the checker has teeth: a batch
//! writer that acquires groups in *descending* order must be caught
//! deadlocking against an ascending peer, a grant-holding pipelined
//! writer mis-ordered the same way must be caught too, and writers
//! with locking bypassed must be caught losing an update.

use csar_core::locks::{Acquire, ParityLockTable};
use csar_store::Json;
use std::collections::VecDeque;

/// File handle used for every lock key; the protocol locks `(fh, group)`.
const FH: u64 = 7;

/// One writer touching `groups` in the listed acquisition order.
///
/// * **Batch** (`pipelined: false`) — the retired driver's hold
///   pattern: acquire every group's lock, then read-XOR-write each
///   parity, then release. One schedulable thread.
/// * **Pipelined** (`pipelined: true`, PR 2) — the completion-driven
///   driver: each group is its own lane `[Acquire, Update, Release]`,
///   and lane *i+1*'s acquire is issued by lane *i*'s grant (the §5.1
///   ascending handshake as `WriteDriver` implements it). Lanes
///   interleave freely otherwise, so the writer can hold completions
///   for two groups at once. The update is a single atomic step: the
///   held lock serializes the RMW, so splitting it only inflates the
///   interleaving count without adding reachable states.
/// * **Pipelined + `hold_grants`** — a pipelined acquirer that sits on
///   every grant until all its groups have updated, releasing in a
///   final lane. This is the strongest hold-and-wait shape a
///   completion-driven client can exhibit; §5.1 ordering is exactly
///   what keeps it deadlock-free, and the descending self-test proves
///   the checker notices when it is broken.
///
/// With `locking` off the writer skips acquire/release — the paper's
/// R5-NOLOCK diagnostic.
#[derive(Debug, Clone)]
pub struct Writer {
    /// Parity groups touched, in acquisition order.
    pub groups: Vec<u64>,
    /// Whether the writer uses the parity-lock protocol.
    pub locking: bool,
    /// Completion-driven per-group lanes instead of the batch pattern.
    pub pipelined: bool,
    /// Pipelined only: defer every release until all groups updated.
    pub hold_grants: bool,
}

impl Writer {
    /// The retired batch hold pattern.
    pub fn batch(groups: Vec<u64>, locking: bool) -> Writer {
        Writer { groups, locking, pipelined: false, hold_grants: false }
    }

    /// The PR 2 completion-driven pattern (releases per group).
    pub fn pipelined(groups: Vec<u64>) -> Writer {
        Writer { groups, locking: true, pipelined: true, hold_grants: false }
    }

    /// A pipelined acquirer that holds every grant until the end.
    pub fn pipelined_holding(groups: Vec<u64>) -> Writer {
        Writer { groups, locking: true, pipelined: true, hold_grants: true }
    }
}

/// A single step of a lane's program.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Acquire(u64),
    ReadParity(u64),
    WriteParity(u64),
    /// Atomic read-XOR-write, used by pipelined lanes (see [`Writer`]).
    UpdateParity(u64),
    Release(u64),
}

fn batch_program(w: &Writer) -> Vec<Step> {
    let mut steps = Vec::new();
    if w.locking {
        steps.extend(w.groups.iter().map(|&g| Step::Acquire(g)));
    }
    for &g in &w.groups {
        steps.push(Step::ReadParity(g));
        steps.push(Step::WriteParity(g));
    }
    if w.locking {
        steps.extend(w.groups.iter().map(|&g| Step::Release(g)));
    }
    steps
}

/// One schedulable thread. Batch writers are one lane; pipelined
/// writers get one lane per group plus (with `hold_grants`) a release
/// lane. `gates` are `(lane, min_pc)` pairs that must all hold before
/// this lane may step — the §5.1 grant handshake and the deferred
/// release barrier.
struct Lane {
    writer: usize,
    steps: Vec<Step>,
    gates: Vec<(usize, usize)>,
}

fn lanes(writers: &[Writer]) -> Vec<Lane> {
    let mut out: Vec<Lane> = Vec::new();
    for (w, writer) in writers.iter().enumerate() {
        if !writer.pipelined {
            out.push(Lane { writer: w, steps: batch_program(writer), gates: Vec::new() });
            continue;
        }
        if !writer.locking {
            for &g in &writer.groups {
                out.push(Lane { writer: w, steps: vec![Step::UpdateParity(g)], gates: Vec::new() });
            }
            continue;
        }
        let mut update_lanes = Vec::new();
        let mut prev: Option<usize> = None;
        for &g in &writer.groups {
            // Acquire may only be issued once the previous group's
            // acquire has been *granted* (its pc moved past step 0).
            let gates = prev.map(|p| vec![(p, 1)]).unwrap_or_default();
            let mut steps = vec![Step::Acquire(g), Step::UpdateParity(g)];
            if !writer.hold_grants {
                steps.push(Step::Release(g));
            }
            prev = Some(out.len());
            update_lanes.push(out.len());
            out.push(Lane { writer: w, steps, gates });
        }
        if writer.hold_grants {
            // Releases run only after every group's update completed.
            let gates = update_lanes.iter().map(|&l| (l, 2)).collect();
            let steps = writer.groups.iter().map(|&g| Step::Release(g)).collect();
            out.push(Lane { writer: w, steps, gates });
        }
    }
    out
}

/// A named scenario plus what the checker is expected to conclude.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (stable; used in output and tests).
    pub name: &'static str,
    /// The concurrent writers.
    pub writers: Vec<Writer>,
    /// Whether this scenario is a self-test that MUST produce
    /// violations (mis-ordered locks, bypassed locking).
    pub expect_violations: bool,
}

/// One property violation, with the schedule that produced it.
#[derive(Debug, Clone)]
pub struct ModelViolation {
    /// Which property failed.
    pub property: &'static str,
    /// Details (groups, tokens, writers involved).
    pub detail: String,
    /// The writer-id schedule reproducing it.
    pub schedule: Vec<usize>,
}

/// Exhaustive exploration result for one scenario.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: &'static str,
    /// Complete schedules explored (terminal or deadlocked).
    pub interleavings: u64,
    /// Violations found (deduplicated per property).
    pub violations: Vec<ModelViolation>,
    /// Did the scenario meet its expectation?
    pub ok: bool,
    /// Whether exploration hit the schedule cap before finishing.
    pub truncated: bool,
}

/// Outcome of executing one complete schedule.
enum RunOutcome {
    Terminal,
    Deadlock { stuck: Vec<usize> },
}

/// Execution state for one run, checking invariants as it goes.
/// Indexed by *lane*; parity tokens and snapshots belong to the
/// owning writer.
struct Run {
    table: ParityLockTable<usize>,
    /// XOR parity accumulator per group index.
    parity: Vec<u64>,
    /// Per-writer snapshot of each group's parity at its last read.
    snap: Vec<Vec<Option<u64>>>,
    pc: Vec<usize>,
    blocked: Vec<bool>,
    /// Shadow FIFO per group (lane ids) for the fairness check.
    shadow: Vec<VecDeque<usize>>,
    fifo_breach: Option<String>,
}

impl Run {
    fn new(nwriters: usize, nlanes: usize, ngroups: usize) -> Run {
        Run {
            table: ParityLockTable::new(),
            parity: vec![0; ngroups],
            snap: vec![vec![None; ngroups]; nwriters],
            pc: vec![0; nlanes],
            blocked: vec![false; nlanes],
            shadow: (0..ngroups).map(|_| VecDeque::new()).collect(),
            fifo_breach: None,
        }
    }

    fn gates_open(&self, lane: &Lane) -> bool {
        lane.gates.iter().all(|&(l, min_pc)| self.pc[l] >= min_pc)
    }

    fn enabled(&self, lanes: &[Lane]) -> Vec<usize> {
        (0..lanes.len())
            .filter(|&l| {
                self.pc[l] < lanes[l].steps.len() && !self.blocked[l] && self.gates_open(&lanes[l])
            })
            .collect()
    }

    fn step(&mut self, l: usize, lanes: &[Lane]) {
        let w = lanes[l].writer;
        let step = lanes[l].steps[self.pc[l]];
        match step {
            Step::Acquire(g) => match self.table.acquire((FH, g), l) {
                Acquire::Granted => {}
                Acquire::Queued => {
                    self.shadow[g as usize].push_back(l);
                    self.blocked[l] = true;
                    return; // pc advances when the lock is handed over
                }
            },
            Step::ReadParity(g) => self.snap[w][g as usize] = Some(self.parity[g as usize]),
            Step::WriteParity(g) => {
                let read = self.snap[w][g as usize].expect("program reads before writing");
                self.parity[g as usize] = read ^ token(w);
            }
            Step::UpdateParity(g) => self.parity[g as usize] ^= token(w),
            Step::Release(g) => {
                if let Some(next) = self.table.release((FH, g)) {
                    // The real table woke `next`; FIFO demands it be the
                    // longest-waiting shadow entry.
                    match self.shadow[g as usize].pop_front() {
                        Some(expect) if expect == next => {
                            self.blocked[next] = false;
                            self.pc[next] += 1; // completes its Acquire
                        }
                        other => {
                            self.fifo_breach = Some(format!(
                                "group {g}: table woke lane {next}, FIFO expected {other:?}"
                            ));
                            self.blocked[next] = false;
                            self.pc[next] += 1;
                        }
                    }
                }
            }
        }
        self.pc[l] += 1;
    }
}

/// The unique parity contribution of writer `w`.
fn token(w: usize) -> u64 {
    1 << w
}

/// Exhaustively explore every interleaving of `scenario`, checking all
/// four properties on each. `max_schedules` bounds runaway scenarios;
/// hitting it sets `truncated` (and fails the scenario, since the
/// guarantee is exhaustiveness).
pub fn explore(scenario: &Scenario, max_schedules: u64) -> ScenarioReport {
    let lanes = lanes(&scenario.writers);
    let ngroups = scenario
        .writers
        .iter()
        .flat_map(|w| w.groups.iter())
        .max()
        .map(|&g| g as usize + 1)
        .unwrap_or(0);

    let mut report = ScenarioReport {
        name: scenario.name,
        interleavings: 0,
        violations: Vec::new(),
        ok: true,
        truncated: false,
    };
    let mut seen_props: Vec<&'static str> = Vec::new();
    let mut record = |report: &mut ScenarioReport,
                      property: &'static str,
                      detail: String,
                      schedule: &[usize]| {
        // Keep one witness schedule per property: the count of violating
        // schedules is unbounded, the witness is what matters.
        if !seen_props.contains(&property) {
            seen_props.push(property);
            report.violations.push(ModelViolation {
                property,
                detail,
                schedule: schedule.to_vec(),
            });
        }
    };

    // DFS by prefix replay over choice indices into the enabled list.
    let mut prefix: Vec<usize> = Vec::new();
    loop {
        if report.interleavings >= max_schedules {
            report.truncated = true;
            break;
        }
        // Execute one schedule: follow `prefix`, then first-enabled.
        let mut run = Run::new(scenario.writers.len(), lanes.len(), ngroups);
        let mut choices: Vec<(usize, usize)> = Vec::new(); // (chosen, n_enabled)
        let mut schedule: Vec<usize> = Vec::new();
        let outcome = loop {
            let enabled = run.enabled(&lanes);
            if enabled.is_empty() {
                let mut stuck: Vec<usize> = (0..lanes.len())
                    .filter(|&l| run.pc[l] < lanes[l].steps.len())
                    .map(|l| lanes[l].writer)
                    .collect();
                // Lanes are laid out writer-by-writer; collapse repeats.
                stuck.dedup();
                break if stuck.is_empty() {
                    RunOutcome::Terminal
                } else {
                    RunOutcome::Deadlock { stuck }
                };
            }
            let pick = prefix.get(choices.len()).copied().unwrap_or(0);
            choices.push((pick, enabled.len()));
            let l = enabled[pick];
            schedule.push(lanes[l].writer);
            run.step(l, &lanes);
        };
        report.interleavings += 1;

        // Check properties on the completed schedule.
        if let Some(detail) = run.fifo_breach.take() {
            record(&mut report, "fifo-handoff", detail, &schedule);
        }
        match outcome {
            RunOutcome::Deadlock { stuck } => {
                record(
                    &mut report,
                    "deadlock",
                    format!("writers {stuck:?} blocked with no runnable peer"),
                    &schedule,
                );
            }
            RunOutcome::Terminal => {
                for g in 0..ngroups {
                    let want = scenario
                        .writers
                        .iter()
                        .enumerate()
                        .filter(|(_, w)| w.groups.contains(&(g as u64)))
                        .fold(0u64, |acc, (i, _)| acc ^ token(i));
                    if run.parity[g] != want {
                        record(
                            &mut report,
                            "lost-update",
                            format!(
                                "group {g}: parity {:#x} != expected {want:#x} (write hole)",
                                run.parity[g]
                            ),
                            &schedule,
                        );
                    }
                }
                if !run.table.held_keys().is_empty() {
                    record(
                        &mut report,
                        "quiescence",
                        format!("locks still held at exit: {:?}", run.table.held_keys()),
                        &schedule,
                    );
                }
            }
        }

        // Backtrack to the next unexplored branch.
        while let Some(&(chosen, n)) = choices.last() {
            if chosen + 1 < n {
                break;
            }
            choices.pop();
        }
        match choices.last() {
            None => break, // tree exhausted
            Some(&(chosen, _)) => {
                // Rebuild the prefix from the choices actually taken
                // (greedy zeros beyond the old prefix included), then
                // advance the deepest non-exhausted branch.
                prefix.clear();
                prefix.extend(choices[..choices.len() - 1].iter().map(|&(c, _)| c));
                prefix.push(chosen + 1);
            }
        }
    }

    report.ok = !report.truncated && report.violations.is_empty() != scenario.expect_violations;
    report
}

/// The tier-1 scenario suite: the safe protocol configurations —
/// batch, completion-driven pipelined (PR 2), and their mix — plus the
/// teeth-proving self-tests.
pub fn suite() -> Vec<Scenario> {
    let asc = |groups: Vec<u64>| Writer::batch(groups, true);
    vec![
        Scenario {
            name: "pair_same_group",
            writers: vec![asc(vec![0]), asc(vec![0])],
            expect_violations: false,
        },
        Scenario {
            name: "pair_two_groups_ascending",
            writers: vec![asc(vec![0, 1]), asc(vec![0, 1])],
            expect_violations: false,
        },
        Scenario {
            name: "trio_mixed_groups_ascending",
            writers: vec![asc(vec![0]), asc(vec![1]), asc(vec![0, 1])],
            expect_violations: false,
        },
        // PR 2: completion-driven writers keep several groups in flight
        // at once; §5.1 ascending acquisition keeps every combination
        // below deadlock-free.
        Scenario {
            name: "pair_two_groups_pipelined",
            writers: vec![Writer::pipelined(vec![0, 1]), Writer::pipelined(vec![0, 1])],
            expect_violations: false,
        },
        Scenario {
            name: "pipelined_holds_two_grants_ascending",
            writers: vec![
                Writer::pipelined_holding(vec![0, 1]),
                Writer::pipelined_holding(vec![0, 1]),
            ],
            expect_violations: false,
        },
        Scenario {
            name: "pipelined_with_batch_writer",
            writers: vec![Writer::pipelined(vec![0, 1]), asc(vec![0, 1])],
            expect_violations: false,
        },
        Scenario {
            name: "selftest_descending_order_deadlocks",
            writers: vec![asc(vec![0, 1]), Writer::batch(vec![1, 0], true)],
            expect_violations: true,
        },
        Scenario {
            name: "selftest_pipelined_descending_deadlocks",
            writers: vec![
                Writer::pipelined_holding(vec![0, 1]),
                Writer::pipelined_holding(vec![1, 0]),
            ],
            expect_violations: true,
        },
        Scenario {
            name: "selftest_nolock_write_hole",
            writers: vec![Writer::batch(vec![0], false), Writer::batch(vec![0], false)],
            expect_violations: true,
        },
    ]
}

/// Render one scenario report for `--json`.
pub fn report_json(r: &ScenarioReport) -> Json {
    Json::obj([
        ("name", Json::from(r.name)),
        ("interleavings", Json::from(r.interleavings)),
        ("ok", Json::from(r.ok)),
        ("truncated", Json::from(r.truncated)),
        (
            "violations",
            Json::Arr(
                r.violations
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("property", Json::from(v.property)),
                            ("detail", Json::from(v.detail.as_str())),
                            (
                                "schedule",
                                Json::Arr(v.schedule.iter().map(|&w| Json::from(w as u64)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = 2_000_000;

    #[test]
    fn ascending_scenarios_are_clean_and_exhaustive() {
        for s in suite().into_iter().filter(|s| !s.expect_violations) {
            let r = explore(&s, CAP);
            assert!(r.ok, "{}: {:?}", r.name, r.violations);
            assert!(!r.truncated, "{} truncated", r.name);
            assert!(r.violations.is_empty(), "{}: {:?}", r.name, r.violations);
        }
    }

    #[test]
    fn descending_acquisition_is_caught_as_deadlock() {
        let s = suite().into_iter().find(|s| s.name == "selftest_descending_order_deadlocks").unwrap();
        let r = explore(&s, CAP);
        assert!(r.violations.iter().any(|v| v.property == "deadlock"), "{:?}", r.violations);
        assert!(r.ok);
    }

    /// Satellite: a lost-update schedule is reported when locking is
    /// bypassed — the regression guard for the checker's write-hole
    /// detection.
    #[test]
    fn bypassed_locking_reports_lost_update() {
        let s = suite().into_iter().find(|s| s.name == "selftest_nolock_write_hole").unwrap();
        let r = explore(&s, CAP);
        let v = r.violations.iter().find(|v| v.property == "lost-update").expect("write hole found");
        // The witness schedule must be a genuine read-read-write-write
        // interleaving: both writers appear before either finishes.
        assert!(v.schedule.len() >= 4);
        assert!(r.ok);
    }

    /// Satellite: independent keys interleave freely — writers on
    /// disjoint groups never block, deadlock, or corrupt each other.
    #[test]
    fn independent_keys_interleave_cleanly() {
        let s = Scenario {
            name: "independent_keys",
            writers: vec![
                Writer::batch(vec![0], true),
                Writer::batch(vec![1], true),
                Writer::batch(vec![2], true),
            ],
            expect_violations: false,
        };
        let r = explore(&s, CAP);
        assert!(r.ok, "{:?}", r.violations);
        // Disjoint keys never block, so every interleaving of three
        // 4-step programs is reachable: 12!/(4!·4!·4!) = 34650.
        assert_eq!(r.interleavings, 34_650);
    }

    #[test]
    fn suite_meets_the_thousand_interleaving_floor() {
        let total: u64 = suite().iter().map(|s| explore(s, CAP).interleavings).sum();
        assert!(total >= 1_000, "only {total} interleavings explored");
    }

    #[test]
    fn two_step_pair_counts_match_closed_form() {
        // Two writers, no locking, one group each on distinct groups:
        // programs are 2 steps; interleavings = C(4,2) = 6.
        let s = Scenario {
            name: "count_check",
            writers: vec![Writer::batch(vec![0], false), Writer::batch(vec![1], false)],
            expect_violations: false,
        };
        let r = explore(&s, CAP);
        assert_eq!(r.interleavings, 6);
        assert!(r.ok);
    }

    /// PR 2 satellite: every pipelined scenario in the suite is clean —
    /// §5.1 ascending acquisition keeps completion-driven writers
    /// (including ones holding two grants at once, and mixes with the
    /// batch hold pattern) free of deadlock, lost updates, and FIFO
    /// breaches across every interleaving.
    #[test]
    fn pipelined_scenarios_are_clean_and_exhaustive() {
        for name in [
            "pair_two_groups_pipelined",
            "pipelined_holds_two_grants_ascending",
            "pipelined_with_batch_writer",
        ] {
            let s = suite().into_iter().find(|s| s.name == name).unwrap();
            let r = explore(&s, CAP);
            assert!(r.ok, "{name}: {:?}", r.violations);
            assert!(!r.truncated, "{name} truncated at {} interleavings", r.interleavings);
            assert!(r.violations.is_empty(), "{name}: {:?}", r.violations);
            // The lanes genuinely overlap: far more interleavings than
            // the single-lane serialization of the same programs.
            assert!(r.interleavings > 100, "{name}: only {} interleavings", r.interleavings);
        }
    }

    /// PR 2 satellite teeth: a pipelined acquirer that holds its grants
    /// and acquires in descending order must be caught deadlocking
    /// against an ascending peer.
    #[test]
    fn pipelined_descending_acquisition_is_caught_as_deadlock() {
        let s =
            suite().into_iter().find(|s| s.name == "selftest_pipelined_descending_deadlocks").unwrap();
        let r = explore(&s, CAP);
        assert!(r.violations.iter().any(|v| v.property == "deadlock"), "{:?}", r.violations);
        assert!(r.ok);
    }

    /// Pipelined writers that release each group as its update lands
    /// never deadlock even when mis-ordered: no lane holds one lock
    /// while waiting for another. The §5.1 rule exists for the
    /// grant-holding shapes, and the checker distinguishes the two.
    #[test]
    fn per_group_release_has_no_hold_and_wait_deadlock() {
        let s = Scenario {
            name: "pipelined_descending_per_group_release",
            writers: vec![Writer::pipelined(vec![0, 1]), Writer::pipelined(vec![1, 0])],
            expect_violations: false,
        };
        let r = explore(&s, CAP);
        assert!(r.ok, "{:?}", r.violations);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
