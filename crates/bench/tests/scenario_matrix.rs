//! Multi-seed regression matrix: the paper's headline ordering must hold
//! on every (scenario, seed) cell, not just the one hard-coded workload
//! the figures use. Cells are CI-sized (quick scenario variants) and run
//! in parallel — one thread per cell — so wall-clock stays close to the
//! slowest single cell.

use spes_bench::matrix::{fold_matrix, MatrixCell, PolicyAggregate};
use spes_bench::policies;
use spes_bench::scenario::POLICY_ORDER;
use spes_core::SpesConfig;
use spes_trace::{synth, SynthConfig};

const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];
const SCENARIOS: [&str; 3] = ["chain-heavy", "unseen-heavy", "shift-heavy"];
const N_FUNCTIONS: usize = 150;

/// Tolerance on per-cell Q3-CSR comparisons. CI-sized cells (150
/// functions, 7 days) are noisy at the 75th percentile: genuine
/// cell-level inversions up to ~0.12 against Defuse and the
/// application-granularity histogram occur (e.g. unseen-heavy workloads
/// hand app-level histograms extra signal). The per-cell claim is
/// "never beaten beyond this band"; the strict ordering is asserted on
/// the aggregate means below.
const Q3_TOLERANCE: f64 = 0.15;

/// The matrix's cells and per-policy aggregates.
struct Matrix {
    cells: Vec<MatrixCell>,
    aggregates: Vec<PolicyAggregate>,
}

impl Matrix {
    fn aggregate_of(&self, policy: &str) -> &PolicyAggregate {
        self.aggregates
            .iter()
            .find(|a| a.policy == policy)
            .expect("policy in the default suite")
    }
}

/// The matrix is computed once and shared by every test (they run in
/// the same process under the default harness).
fn matrix() -> &'static Matrix {
    static MATRIX: std::sync::OnceLock<Matrix> = std::sync::OnceLock::new();
    MATRIX.get_or_init(|| {
        let scenarios: Vec<(String, SynthConfig)> = SCENARIOS
            .iter()
            .map(|&name| {
                let mut cfg = synth::scenario_config(name)
                    .expect("registered scenario")
                    .quick();
                cfg.n_functions = N_FUNCTIONS;
                (name.to_owned(), cfg)
            })
            .collect();
        let suite = policies::default_suite(&SpesConfig::default());
        let mut cells = Vec::new();
        let aggregates = fold_matrix(&scenarios, &SEEDS, &suite, |cell| cells.push(cell))
            .expect("the default suite is valid");
        Matrix { cells, aggregates }
    })
}

#[test]
fn headline_ordering_holds_on_every_cell() {
    let out = matrix();
    assert_eq!(out.cells.len(), SCENARIOS.len() * SEEDS.len());

    for cell in &out.cells {
        let spes = cell
            .comparison
            .try_run_of("spes")
            .expect("spes runs in every cell");
        let spes_q3 = spes.csr_percentile(75.0).expect("invoked functions");
        let label = format!("{} seed {}", cell.scenario, cell.seed);

        // SPES's Q3 cold-start rate is not beaten beyond noise by any
        // baseline on any cell.
        for policy in POLICY_ORDER.iter().filter(|&&p| p != "spes") {
            let baseline_q3 = cell
                .comparison
                .try_run_of(policy)
                .expect("registered policy")
                .csr_percentile(75.0)
                .expect("invoked functions");
            assert!(
                spes_q3 <= baseline_q3 + Q3_TOLERANCE,
                "{label}: SPES Q3-CSR {spes_q3:.3} above {policy} {baseline_q3:.3}"
            );
        }

        // And it beats fixed keep-alive on both sides of the trade-off,
        // strictly, on every cell: less wasted memory and a lower overall
        // cold-start rate.
        let fixed = cell
            .comparison
            .try_run_of("fixed-keep-alive")
            .expect("fixed keep-alive runs in every cell");
        assert!(
            spes.total_wmt() < fixed.total_wmt(),
            "{label}: SPES WMT {} >= fixed keep-alive {}",
            spes.total_wmt(),
            fixed.total_wmt()
        );
        let rate = |r: &spes_sim::RunResult| {
            r.total_cold_starts() as f64 / r.total_invocations().max(1) as f64
        };
        assert!(
            rate(spes) < rate(fixed),
            "{label}: SPES cold rate {:.4} >= fixed keep-alive {:.4}",
            rate(spes),
            rate(fixed)
        );
    }
}

#[test]
fn aggregates_confirm_the_ordering_in_expectation() {
    let out = matrix();
    let spes = out.aggregate_of("spes");
    assert_eq!(spes.cells, SCENARIOS.len() * SEEDS.len());
    for policy in POLICY_ORDER.iter().filter(|&&p| p != "spes") {
        let baseline = out.aggregate_of(policy);
        assert!(
            spes.mean_q3_csr <= baseline.mean_q3_csr,
            "mean Q3-CSR: SPES {:.3} above {policy} {:.3}",
            spes.mean_q3_csr,
            baseline.mean_q3_csr
        );
    }
    let fixed = out.aggregate_of("fixed-keep-alive");
    assert!(spes.mean_wmt < fixed.mean_wmt);
}

#[test]
fn fairness_aggregates_are_populated_on_every_policy() {
    // The new scenario axis: chain-heavy / unseen-heavy / shift-heavy
    // cells carry fairness and eviction forensics through the aggregate
    // fold. Values must be well-formed probabilities/coefficients.
    let out = matrix();
    for aggregate in &out.aggregates {
        assert!(
            (0.0..=1.0).contains(&aggregate.mean_gini_csr),
            "{}: gini {}",
            aggregate.policy,
            aggregate.mean_gini_csr
        );
        assert!(aggregate.std_gini_csr >= 0.0);
        assert!(
            (0.0..=1.0).contains(&aggregate.mean_premature_fraction),
            "{}: premature {}",
            aggregate.policy,
            aggregate.mean_premature_fraction
        );
        assert!(aggregate.std_premature_fraction >= 0.0);
    }
}
