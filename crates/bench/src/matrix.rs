//! Seed × scenario × policy-suite comparison matrix.
//!
//! Runs an arbitrary policy suite over every (scenario, seed) cell in
//! parallel (std scoped threads, one per cell, like the Fig. 13-15
//! sweeps) and aggregates per-policy means and standard deviations of
//! the headline metrics. This is the substrate for multi-seed regression
//! tests and robustness sweeps: a claim that holds on one seed of one
//! workload is an anecdote; the matrix makes it a distribution. Since
//! the policy-registry redesign the policy axis is open too: any
//! suite — the paper's default six, a two-policy duel, or everything
//! including the oracle — runs through the same cells.
//!
//! Aggregation is **streaming**: cells run in parallel batches bounded
//! by the machine's parallelism and are folded into per-policy
//! [`OnlineStats`] accumulators in a fixed order (scenario-major, then
//! seed) as they are joined, so the aggregate path retains
//! `O(policies)` state — and at most a worker-pool of in-flight cells —
//! no matter how many cells the sweep spans.
//! [`fold_matrix`] with a dropping sink (`fold_matrix(.., drop)`) is
//! exactly that path — no per-run [`spes_sim::RunResult`] kept alive —
//! while [`run_matrix`] additionally collects the cells for callers that
//! need per-cell assertions. Both paths share one fold, so their
//! aggregates are bit-identical ([`aggregate_cells`] replays the fold
//! over stored cells, which the regression tests use to pin that
//! equivalence).

use crate::scenario::{run_suite_comparison, ComparisonRun};
use serde::Serialize;
use spes_sim::suite::{validate_suite, PolicySpec, SuiteError};
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

/// Streaming per-policy accumulator behind every aggregate path.
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

    fn push(&mut self, cell: &MatrixCell) {
        let run = cell
            .comparison
            .try_run_of(&self.policy)
            .expect("matrix policies come from the comparison");
        // A cell with no invoked functions has no CSR distribution; skip
        // it rather than record a spuriously perfect 0.0.
        if let Some(q3) = run.csr_percentile(75.0) {
            self.q3.push(q3);
        }
        self.memory.push(run.mean_loaded());
        self.wmt.push(run.total_wmt() as f64);
        let fairness = cell
            .comparison
            .try_fairness_of(&self.policy)
            .expect("fairness recorded for every suite run");
        self.gini.push(fairness.gini_csr());
        let audit = cell
            .comparison
            .try_audit_of(&self.policy)
            .expect("audit recorded for every suite run");
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

/// The stored-cell matrix outcome: every cell plus per-policy aggregates.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// All cells, ordered scenario-major then seed.
    pub cells: Vec<MatrixCell>,
    /// Per-policy aggregates, in suite order.
    pub aggregates: Vec<PolicyAggregate>,
}

impl MatrixOutcome {
    /// The aggregate of one policy by name, if present.
    #[must_use]
    pub fn try_aggregate_of(&self, policy: &str) -> Option<&PolicyAggregate> {
        self.aggregates.iter().find(|a| a.policy == policy)
    }

    /// The aggregate of one policy by name.
    ///
    /// # Panics
    /// Panics if the policy is not part of the suite.
    #[must_use]
    pub fn aggregate_of(&self, policy: &str) -> &PolicyAggregate {
        self.try_aggregate_of(policy)
            .unwrap_or_else(|| panic!("no aggregate for policy {policy}"))
    }

    /// Cells of one scenario, in seed order.
    #[must_use]
    pub fn cells_of(&self, scenario: &str) -> Vec<&MatrixCell> {
        self.cells
            .iter()
            .filter(|c| c.scenario == scenario)
            .collect()
    }
}

/// Runs `suite` over the cross product of `scenarios` × `seeds`,
/// streaming each finished cell through the aggregate fold and then
/// into `sink` — in scenario-major, seed order, regardless of thread
/// completion order, so the fold (and any sink) sees a deterministic
/// cell sequence. The sink owns each cell; dropping it is what makes
/// the streaming path retain only `O(policies)` aggregate state.
///
/// Cells run in parallel batches of (at most) the machine's available
/// parallelism, joined and folded in order before the next batch
/// spawns, so peak in-flight memory is bounded by the worker count —
/// not by the sweep size. (A full fan-out would park every finished
/// cell in its join handle behind a slow first cell, quietly
/// reintroducing the `O(cells)` retention this path exists to remove.)
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
    let batch = std::thread::available_parallelism().map_or(4, usize::from);
    let cells: Vec<(&String, &SynthConfig, u64)> = scenarios
        .iter()
        .flat_map(|(name, cfg)| seeds.iter().map(move |&seed| (name, cfg, seed)))
        .collect();
    for chunk in cells.chunks(batch.max(1)) {
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunk
                .iter()
                .map(|&(name, cfg, seed)| {
                    scope.spawn(move || {
                        let cell_cfg = SynthConfig {
                            seed,
                            ..cfg.clone()
                        };
                        let data = synth::generate(&cell_cfg);
                        MatrixCell {
                            scenario: name.clone(),
                            seed,
                            comparison: run_suite_comparison(&data, suite)
                                .expect("suite validated before fan-out"),
                        }
                    })
                })
                .collect();
            // Join in spawn order: the fold sees cells scenario-major
            // then seed-ordered even though threads finish in any order.
            for handle in handles {
                let cell = handle.join().expect("matrix cell panicked");
                for fold in &mut folds {
                    fold.push(&cell);
                }
                sink(cell);
            }
        });
    }
    Ok(folds.into_iter().map(PolicyFold::finish).collect())
}

/// Replays the aggregate fold over already-stored cells (same code path
/// as the streaming runner, same order assumption: the slice must be
/// scenario-major then seed-ordered, as [`run_matrix`] stores it).
/// Regression tests use this to pin "streaming == stored" bit-for-bit.
#[must_use]
pub fn aggregate_cells(cells: &[MatrixCell], suite: &[PolicySpec]) -> Vec<PolicyAggregate> {
    let mut folds: Vec<PolicyFold> = suite.iter().map(|s| PolicyFold::new(s.name())).collect();
    for cell in cells {
        for fold in &mut folds {
            fold.push(cell);
        }
    }
    folds.into_iter().map(PolicyFold::finish).collect()
}

/// Runs the matrix and keeps every cell ([`MatrixOutcome`]) — the
/// per-cell assertion path. Memory is `O(cells)`; prefer
/// `fold_matrix(.., drop)` for large sweeps that only need aggregates.
pub fn run_matrix(
    scenarios: &[(String, SynthConfig)],
    seeds: &[u64],
    suite: &[PolicySpec],
) -> Result<MatrixOutcome, SuiteError> {
    let mut cells = Vec::with_capacity(scenarios.len() * seeds.len());
    let aggregates = fold_matrix(scenarios, seeds, suite, |cell| cells.push(cell))?;
    Ok(MatrixOutcome { cells, aggregates })
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

    #[test]
    fn small_matrix_runs_and_aggregates() {
        let suite = policies::default_suite(&SpesConfig::default());
        let out = run_matrix(&scenarios(&["quick", "chain-heavy"], 60), &[1, 2], &suite).unwrap();
        assert_eq!(out.cells.len(), 4);
        assert_eq!(out.aggregates.len(), POLICY_ORDER.len());
        assert_eq!(out.cells_of("quick").len(), 2);
        let spes = out.aggregate_of("spes");
        assert_eq!(spes.cells, 4);
        assert!(spes.mean_q3_csr.is_finite());
        assert!(spes.std_q3_csr >= 0.0);
        assert!(spes.mean_gini_csr >= 0.0);
        assert!(spes.mean_premature_fraction >= 0.0);
        // Cells are scenario-major and seed-ordered.
        assert_eq!(out.cells[0].scenario, "quick");
        assert_eq!(out.cells[0].seed, 1);
        assert_eq!(out.cells[3].scenario, "chain-heavy");
        assert_eq!(out.cells[3].seed, 2);
    }

    #[test]
    fn streaming_matrix_matches_stored_matrix_bit_for_bit() {
        // The headline property of the fold-don't-store rework: the
        // streaming path (cells dropped as folded) and the stored path
        // produce identical aggregates down to the last bit, because
        // they are the same fold over the same deterministic cell order.
        let suite =
            policies::suite_of(&["spes", "fixed-keep-alive"], &SpesConfig::default()).unwrap();
        let cells = scenarios(&["quick", "bursty"], 50);
        let stored = run_matrix(&cells, &[3, 4], &suite).unwrap();
        let streamed = fold_matrix(&cells, &[3, 4], &suite, drop).unwrap();
        let replayed = aggregate_cells(&stored.cells, &suite);
        assert_eq!(streamed.len(), suite.len());
        for ((a, b), c) in stored.aggregates.iter().zip(&streamed).zip(&replayed) {
            assert_aggregates_bit_identical(a, b);
            assert_aggregates_bit_identical(c, b);
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
        let out = run_matrix(&scenarios(&["quick"], 50), &[3], &suite).unwrap();
        let names: Vec<&str> = out.aggregates.iter().map(|a| a.policy.as_str()).collect();
        assert_eq!(names, ["oracle", "fixed-keep-alive"]);
        assert!(out.try_aggregate_of("spes").is_none());
        // The clairvoyant oracle never cold-starts, on any cell.
        assert_eq!(out.aggregate_of("oracle").mean_q3_csr, 0.0);
    }

    #[test]
    fn invalid_suites_fail_before_fanning_out() {
        let suite = policies::suite_of(&["faascache"], &SpesConfig::default()).unwrap();
        let cells = scenarios(&["quick"], 20);
        assert!(matches!(
            run_matrix(&cells, &[1], &suite),
            Err(SuiteError::UnknownCapacityRef { .. })
        ));
        assert!(matches!(
            fold_matrix(&cells, &[1], &suite, drop),
            Err(SuiteError::UnknownCapacityRef { .. })
        ));
    }
}
