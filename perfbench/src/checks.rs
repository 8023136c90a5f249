//! Output checks. Every check is counted as an attempted operation, and
//! every failing one as a failed operation. Wall-clock fields
//! (`RunResult::overhead_secs`, `SlotEnd.policy_secs`, serve's
//! `policy_us`, the overhead figure) never enter a check.

use spes_sim::RunResult;
use spes_trace::SlotBatches;

#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `detail` is only built when it fails.
    pub fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(detail());
        }
    }

    /// The paper-metric invariants of one run: per-function CSR within
    /// [0, 1], cold starts never above invocations, and per-function
    /// invocation totals equal to what `batches` holds over the run's
    /// measured window.
    pub fn run_invariants(&mut self, label: &str, run: &RunResult, expected: &[u64]) {
        let csr_ok = run.csr_values().iter().all(|c| (0.0..=1.0).contains(c));
        self.check(csr_ok, || format!("{label}: a CSR lies outside [0, 1]"));
        let cold_ok = run
            .cold_starts
            .iter()
            .zip(&run.invocations)
            .all(|(c, i)| c <= i);
        self.check(cold_ok, || {
            format!("{label}: a function has more cold starts than invocations")
        });
        self.check(run.invocations == expected, || {
            format!(
                "{label}: invocation totals {} differ from the trace window's {}",
                run.total_invocations(),
                expected.iter().sum::<u64>()
            )
        });
    }

    /// Two runs of the same policy on the same input agree on every
    /// simulated field (`overhead_secs`, a wall-clock reading, excepted).
    pub fn same_run(&mut self, label: &str, a: &RunResult, b: &RunResult) {
        self.check(same_simulated(a, b), || {
            format!(
                "{label}: runs differ ({} vs {} cold starts, wmt {} vs {})",
                a.total_cold_starts(),
                b.total_cold_starts(),
                a.total_wmt(),
                b.total_wmt()
            )
        });
    }

    /// A metric value must be finite to be reported.
    pub fn finite(&mut self, name: &str, value: f64) {
        self.check(value.is_finite(), || format!("metric {name} is not finite"));
    }
}

/// Equality of two runs with the wall-clock `overhead_secs` ignored.
pub fn same_simulated(a: &RunResult, b: &RunResult) -> bool {
    let mut b = b.clone();
    b.overhead_secs = a.overhead_secs;
    *a == b
}

/// Per-function invocation totals of `batches` over `[from, to)`.
pub fn invocations_per_function(
    batches: &SlotBatches,
    n_functions: usize,
    from: u32,
    to: u32,
) -> Vec<u64> {
    let mut totals = vec![0u64; n_functions];
    for slot in from..to {
        for &(f, count) in batches.batch(slot) {
            totals[f.0 as usize] += u64::from(count);
        }
    }
    totals
}
