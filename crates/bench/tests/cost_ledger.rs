//! The cost ledger is deterministic: the same build gives the same
//! ledger on every run and on every thread.

use csar_bench::cost::{ledger, Ledger};

#[test]
fn ledger_is_identical_across_runs_and_threads() {
    let small = || ledger(2);
    let first: Ledger = small();
    let second = small();
    let spawned = std::thread::spawn(small).join().expect("ledger thread");
    assert_eq!(first, second, "a second run changed the ledger");
    assert_eq!(first, spawned, "a fresh thread changed the ledger");
    assert_eq!(first.to_json().to_pretty(), spawned.to_json().to_pretty());
    assert_eq!(first.cases.len(), 12, "every scheme × shape case is measured");
}
