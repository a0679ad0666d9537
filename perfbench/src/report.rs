//! Output checks and the one-line JSON result.

use std::fmt::Write as _;

/// Output checks: every failed check is kept (up to a cap) and makes the
/// run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    total_failures: u64,
}

impl Checks {
    /// Record a check; `msg` describes the failure.
    pub fn require(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.total_failures += 1;
            if self.failures.len() < 16 {
                self.failures.push(msg());
            }
        }
    }

    /// Record that `a` and `b` are exactly equal.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) {
        self.require(a == b, || format!("{what}: {a:?} != {b:?}"));
    }

    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.total_failures == 0
    }

    /// The recorded failures.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// A run's result: named metrics with units and op counts.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ops issued, warm-up included.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
}

impl Report {
    /// Add a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Human-readable table, one metric a line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(s, "  {name:<36} {value:>14.4} {unit}");
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self, correct: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            // Non-finite numbers are not JSON; they only arise from an
            // empty sample, which the checks report.
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}
