//! Seed × scenario × policy-suite comparison matrix.
//!
//! Runs an arbitrary policy suite over every (scenario, seed) cell in
//! parallel (through `par`, the fan-out the Fig. 13-15 sweeps share)
//! and aggregates per-policy means and standard deviations of the
//! headline metrics. This is the substrate for multi-seed regression
//! tests and robustness sweeps: a claim that holds on one seed of one
//! workload is an anecdote; the matrix makes it a distribution. Since
//! the policy-registry redesign the policy axis is open too: any
//! suite — the paper's default six, a two-policy duel, or everything
//! including the oracle — runs through the same cells.
//!
//! Aggregation is **streaming**: cells run in parallel batches bounded
//! by the machine's parallelism and are folded into per-policy
//! [`OnlineStats`] accumulators in a fixed order (scenario-major, then
//! seed) as each batch is delivered, so [`fold_matrix`] retains
//! `O(policies)` state — and at most one batch of finished cells — no
//! matter how many cells the sweep spans. It is the one matrix path:
//! its sink receives every cell after the fold, so a caller that needs
//! per-cell assertions collects them there and one that does not
//! passes `drop`.

use crate::par;
use crate::scenario::{run_suite_comparison, ComparisonRun};
use serde::Serialize;
use spes_sim::suite::{validate_suite, PolicySpec, SuiteError};
use spes_sim::{EvictionAudit, Fairness, RunResult};
use spes_stats::online::OnlineStats;
use spes_trace::{synth, SynthConfig};

/// One cell of the matrix: a scenario config run under one seed.
#[derive(Debug)]
pub struct MatrixCell {
    /// Scenario name (registry key or caller-chosen label).
    pub scenario: String,
    /// Workload seed of this cell.
    pub seed: u64,
    /// The full suite comparison on this cell's trace.
    pub comparison: ComparisonRun,
}

/// Per-policy aggregate over all matrix cells.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyAggregate {
    /// Policy name, as in the suite.
    pub policy: String,
    /// Number of cells aggregated.
    pub cells: usize,
    /// Mean 75th-percentile cold-start rate across cells.
    pub mean_q3_csr: f64,
    /// Standard deviation of the Q3-CSR across cells.
    pub std_q3_csr: f64,
    /// Mean of the per-cell mean loaded-instance count (memory usage).
    pub mean_memory: f64,
    /// Standard deviation of the memory usage across cells.
    pub std_memory: f64,
    /// Mean total wasted memory time across cells.
    pub mean_wmt: f64,
    /// Standard deviation of the total WMT across cells.
    pub std_wmt: f64,
    /// Mean Gini coefficient of per-app cold-start rates across cells
    /// (the fairness axis: 0 = burden matches traffic everywhere).
    pub mean_gini_csr: f64,
    /// Standard deviation of the fairness Gini across cells.
    pub std_gini_csr: f64,
    /// Mean fraction of evictions that were reloaded within the
    /// premature window across cells.
    pub mean_premature_fraction: f64,
    /// Standard deviation of the premature-reload fraction across cells.
    pub std_premature_fraction: f64,
}

/// Streaming per-policy accumulator behind [`fold_matrix`].
#[derive(Debug, Clone)]
struct PolicyFold {
    policy: String,
    cells: usize,
    q3: OnlineStats,
    memory: OnlineStats,
    wmt: OnlineStats,
    gini: OnlineStats,
    premature: OnlineStats,
}

impl PolicyFold {
    fn new(policy: &str) -> Self {
        Self {
            policy: policy.to_owned(),
            cells: 0,
            q3: OnlineStats::new(),
            memory: OnlineStats::new(),
            wmt: OnlineStats::new(),
            gini: OnlineStats::new(),
            premature: OnlineStats::new(),
        }
    }

    /// Folds in this policy's run and views from one cell.
    fn push(&mut self, run: &RunResult, fairness: &Fairness, audit: &EvictionAudit) {
        // A cell with no invoked functions has no CSR distribution; skip
        // it rather than record a spuriously perfect 0.0.
        if let Some(q3) = run.csr_percentile(75.0) {
            self.q3.push(q3);
        }
        self.memory.push(run.mean_loaded());
        self.wmt.push(run.total_wmt() as f64);
        self.gini.push(fairness.gini_csr());
        self.premature.push(audit.premature_fraction());
        self.cells += 1;
    }

    fn finish(self) -> PolicyAggregate {
        PolicyAggregate {
            policy: self.policy,
            cells: self.cells,
            mean_q3_csr: self.q3.mean(),
            std_q3_csr: self.q3.stddev(),
            mean_memory: self.memory.mean(),
            std_memory: self.memory.stddev(),
            mean_wmt: self.wmt.mean(),
            std_wmt: self.wmt.stddev(),
            mean_gini_csr: self.gini.mean(),
            std_gini_csr: self.gini.stddev(),
            mean_premature_fraction: self.premature.mean(),
            std_premature_fraction: self.premature.stddev(),
        }
    }
}

/// Runs `suite` over the cross product of `scenarios` × `seeds`,
/// streaming each finished cell through the aggregate fold and then
/// into `sink` — in scenario-major, seed order, regardless of thread
/// completion order, so the fold (and any sink) sees a deterministic
/// cell sequence. The sink owns each cell; dropping it is what makes
/// the streaming path retain only `O(policies)` aggregate state.
///
/// Cells run through `par::for_each_ordered`, so peak in-flight
/// memory is bounded by the worker count, not by the sweep size.
///
/// Each cell generates its own trace from the scenario config with the
/// cell's seed; the trace-carried training boundary drives fitting and
/// measurement as in [`crate::scenario::run_suite_comparison`]. The
/// suite is validated once up front, so an invalid suite fails before
/// any cell runs.
pub fn fold_matrix(
    scenarios: &[(String, SynthConfig)],
    seeds: &[u64],
    suite: &[PolicySpec],
    mut sink: impl FnMut(MatrixCell),
) -> Result<Vec<PolicyAggregate>, SuiteError> {
    validate_suite(suite)?;
    let mut folds: Vec<PolicyFold> = suite.iter().map(|s| PolicyFold::new(s.name())).collect();
    let cells = scenarios
        .iter()
        .flat_map(|(name, cfg)| seeds.iter().map(move |&seed| (name, cfg, seed)));
    par::for_each_ordered(
        cells,
        |(name, cfg, seed)| {
            let mut cfg = cfg.clone();
            cfg.seed = seed;
            let data = synth::generate(&cfg);
            run_suite_comparison(&data, suite).map(|comparison| MatrixCell {
                scenario: name.clone(),
                seed,
                comparison,
            })
        },
        |cell| {
            let cell = cell?;
            // The comparison's columns are in suite order, as are the folds.
            let cmp = &cell.comparison;
            let views = cmp.runs.iter().zip(&cmp.fairness).zip(&cmp.audits);
            for (fold, ((run, fairness), audit)) in folds.iter_mut().zip(views) {
                fold.push(run, fairness, audit);
            }
            sink(cell);
            Ok(())
        },
    )?;
    Ok(folds.into_iter().map(PolicyFold::finish).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies;
    use crate::scenario::POLICY_ORDER;
    use spes_core::SpesConfig;

    /// Registered scenarios resized to `n_functions` per cell.
    fn scenarios(names: &[&str], n_functions: usize) -> Vec<(String, SynthConfig)> {
        names
            .iter()
            .map(|&name| {
                let mut cfg = synth::scenario_config(name).expect("registered scenario");
                cfg.n_functions = n_functions;
                (name.to_owned(), cfg)
            })
            .collect()
    }

    #[test]
    fn online_fold_matches_descriptive_stats() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &v in &values {
            s.push(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        let empty = OnlineStats::new();
        assert_eq!((empty.mean(), empty.stddev()), (0.0, 0.0));
    }

    /// Runs the matrix, keeping every cell its sink receives.
    fn collected(
        scenarios: &[(String, SynthConfig)],
        seeds: &[u64],
        suite: &[PolicySpec],
    ) -> (Vec<MatrixCell>, Vec<PolicyAggregate>) {
        let mut cells = Vec::new();
        let aggregates = fold_matrix(scenarios, seeds, suite, |cell| cells.push(cell)).unwrap();
        (cells, aggregates)
    }

    #[test]
    fn small_matrix_runs_and_aggregates() {
        let suite = policies::default_suite(&SpesConfig::default());
        let (cells, aggregates) =
            collected(&scenarios(&["quick", "chain-heavy"], 60), &[1, 2], &suite);
        assert_eq!(cells.len(), 4);
        assert_eq!(aggregates.len(), POLICY_ORDER.len());
        assert_eq!(cells.iter().filter(|c| c.scenario == "quick").count(), 2);
        let spes = &aggregates[0];
        assert_eq!(spes.policy, "spes");
        assert_eq!(spes.cells, 4);
        assert!(spes.mean_q3_csr.is_finite());
        assert!(spes.std_q3_csr >= 0.0);
        assert!(spes.mean_gini_csr >= 0.0);
        assert!(spes.mean_premature_fraction >= 0.0);
        // Cells are scenario-major and seed-ordered.
        assert_eq!(cells[0].scenario, "quick");
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[3].scenario, "chain-heavy");
        assert_eq!(cells[3].seed, 2);
    }

    #[test]
    fn aggregates_follow_each_policys_own_runs() {
        // Listed out of registry order, so a fold that read the cells by
        // registry position (or any position but the suite's) would hand
        // each policy the other's numbers.
        let suite =
            policies::suite_of(&["fixed-keep-alive", "spes"], &SpesConfig::default()).unwrap();
        let (cells, aggregates) = collected(&scenarios(&["quick", "bursty"], 50), &[3, 4], &suite);
        let names: Vec<&str> = aggregates.iter().map(|a| a.policy.as_str()).collect();
        assert_eq!(names, ["fixed-keep-alive", "spes"]);
        assert_ne!(aggregates[0].mean_wmt, aggregates[1].mean_wmt);
        for aggregate in &aggregates {
            let mut own = PolicyFold::new(&aggregate.policy);
            for cell in &cells {
                let cmp = &cell.comparison;
                let i = cmp
                    .runs
                    .iter()
                    .position(|r| r.policy_name == aggregate.policy)
                    .unwrap();
                own.push(&cmp.runs[i], &cmp.fairness[i], &cmp.audits[i]);
            }
            assert_aggregates_bit_identical(aggregate, &own.finish());
        }
    }

    fn assert_aggregates_bit_identical(x: &PolicyAggregate, y: &PolicyAggregate) {
        assert_eq!(x.policy, y.policy);
        assert_eq!(x.cells, y.cells);
        assert_eq!(x.mean_q3_csr.to_bits(), y.mean_q3_csr.to_bits());
        assert_eq!(x.std_q3_csr.to_bits(), y.std_q3_csr.to_bits());
        assert_eq!(x.mean_memory.to_bits(), y.mean_memory.to_bits());
        assert_eq!(x.std_memory.to_bits(), y.std_memory.to_bits());
        assert_eq!(x.mean_wmt.to_bits(), y.mean_wmt.to_bits());
        assert_eq!(x.std_wmt.to_bits(), y.std_wmt.to_bits());
        assert_eq!(x.mean_gini_csr.to_bits(), y.mean_gini_csr.to_bits());
        assert_eq!(x.std_gini_csr.to_bits(), y.std_gini_csr.to_bits());
        assert_eq!(
            x.mean_premature_fraction.to_bits(),
            y.mean_premature_fraction.to_bits()
        );
        assert_eq!(
            x.std_premature_fraction.to_bits(),
            y.std_premature_fraction.to_bits()
        );
    }

    #[test]
    fn fold_matrix_delivers_cells_in_deterministic_order() {
        let suite = policies::suite_of(&["no-keep-alive"], &SpesConfig::default()).unwrap();
        let mut seen = Vec::new();
        fold_matrix(
            &scenarios(&["quick", "bursty"], 30),
            &[9, 1],
            &suite,
            |cell| seen.push((cell.scenario.clone(), cell.seed)),
        )
        .unwrap();
        assert_eq!(
            seen,
            vec![
                ("quick".to_owned(), 9),
                ("quick".to_owned(), 1),
                ("bursty".to_owned(), 9),
                ("bursty".to_owned(), 1),
            ]
        );
    }

    #[test]
    fn custom_suite_matrix_aggregates_in_suite_order() {
        let suite =
            policies::suite_of(&["oracle", "fixed-keep-alive"], &SpesConfig::default()).unwrap();
        let aggregates = fold_matrix(&scenarios(&["quick"], 50), &[3], &suite, drop).unwrap();
        let names: Vec<&str> = aggregates.iter().map(|a| a.policy.as_str()).collect();
        assert_eq!(names, ["oracle", "fixed-keep-alive"]);
        // The clairvoyant oracle never cold-starts, on any cell.
        assert_eq!(aggregates[0].mean_q3_csr, 0.0);
    }

    #[test]
    fn invalid_suites_fail_before_fanning_out() {
        let suite = policies::suite_of(&["faascache"], &SpesConfig::default()).unwrap();
        let cells = scenarios(&["quick"], 20);
        let mut ran = 0;
        assert!(matches!(
            fold_matrix(&cells, &[1], &suite, |_| ran += 1),
            Err(SuiteError::UnknownCapacityRef { .. })
        ));
        assert_eq!(ran, 0);
    }
}
