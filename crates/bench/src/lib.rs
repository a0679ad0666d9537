//! # csar-bench — the experiment harness
//!
//! Regenerates every table and figure of the CSAR paper's evaluation
//! from the simulator (`figures` binary; see `DESIGN.md` §5 for the
//! experiment index), and hosts the microbenchmarks of the
//! design-choice ablations (parity kernel, lock manager, overflow
//! table, write buffering, the §6.7 cleaner), run by the in-repo
//! [`crit`] harness behind the `bench-ext` feature.
//!
//! The figure functions return structured series so the root test suite
//! can assert the paper's *shapes* (orderings, ratios, crossovers)
//! mechanically, and the binary can print the same rows the paper plots.

pub mod alloc_count;
pub mod chrome_trace;
pub mod cost;
pub mod crit;
pub mod extensions;
pub mod figures;
pub mod harness;
pub mod par;
pub mod pipeline;
pub mod trace;
pub mod trends;

pub use harness::{run_fresh, run_overwrite, ExperimentResult, Series};
