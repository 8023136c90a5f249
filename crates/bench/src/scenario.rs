//! Shared experiment setup: the standard workload, policy suites, and
//! the comparison runner used by most figures.
//!
//! This module is a thin layer over [`spes_sim::suite::run_suite`]:
//! [`run_suite_comparison`] runs any suite, the paper's six-way
//! comparison being [`crate::policies::default_suite`] (the policies
//! named in [`POLICY_ORDER`]) and any other registered subset (including
//! the `oracle` upper bound) running through the same machinery. Every
//! per-policy column of a [`ComparisonRun`] is in suite order.

use spes_core::SpesPolicy;
use spes_sim::suite::{run_suite, PolicySpec, SuiteEntry, SuiteError};
use spes_sim::{EvictionAudit, Fairness, MemoryPressure, RunResult, SlotSeries};
use spes_trace::{synth, FunctionId, Slot, SynthConfig, SynthTrace};

/// Experiment-wide settings (trace scale and seed).
#[derive(Debug, Clone, Default)]
pub struct Experiment {
    /// Synthetic-workload configuration.
    pub synth: SynthConfig,
}

impl Experiment {
    /// A default experiment scaled to `n` functions with the given seed.
    #[must_use]
    pub fn sized(n: usize, seed: u64) -> Self {
        Self {
            synth: SynthConfig {
                n_functions: n,
                seed,
                ..SynthConfig::default()
            },
        }
    }

    /// An experiment on a registered workload scenario, scaled to `n`
    /// functions with the given seed; `None` for unknown scenario names
    /// (see [`spes_trace::synth::scenarios`] for the registry).
    #[must_use]
    pub fn scenario(name: &str, n: usize, seed: u64) -> Option<Self> {
        let mut synth = synth::scenario_config(name)?;
        synth.n_functions = n;
        synth.seed = seed;
        Some(Self { synth })
    }

    /// The workload of a single-policy cell: [`Experiment::scenario`],
    /// shrunk by [`SynthConfig::quick`] (7-day horizon, at most 200
    /// functions) when `quick` is set.
    ///
    /// # Errors
    /// Names the registered scenarios when `name` is not one of them,
    /// and rejects an empty population.
    pub fn cell(name: &str, n: usize, seed: u64, quick: bool) -> Result<Self, String> {
        if n == 0 {
            return Err(format!("scenario {name:?} needs at least one function"));
        }
        let mut exp = Self::scenario(name, n, seed).ok_or_else(|| {
            format!(
                "unknown scenario {name:?}; registered: {}",
                synth::scenario_names().join(", ")
            )
        })?;
        if quick {
            exp.synth = exp.synth.quick();
        }
        Ok(exp)
    }

    /// Generates the workload trace.
    #[must_use]
    pub fn generate(&self) -> SynthTrace {
        synth::generate(&self.synth)
    }

    /// Training-window end of the generating config. [`Experiment::generate`]
    /// stamps the same boundary into the trace ([`SynthTrace::train_end`]),
    /// which is what the runners fit and measure on — the two cannot
    /// disagree.
    #[must_use]
    pub fn train_end(&self) -> Slot {
        self.synth.train_end()
    }
}

/// The result of running a policy suite on one trace.
#[derive(Debug)]
pub struct ComparisonRun {
    /// Per-policy results, in suite order ([`POLICY_ORDER`] for the
    /// default suite).
    pub runs: Vec<RunResult>,
    /// Per-policy per-slot curves (loaded/cold/EMCR over the measured
    /// window), aligned with `runs`. Recorded by the suite runner's
    /// [`SlotSeries`] observer during the same simulation — time-series
    /// figures read from here with no re-simulation.
    pub slot_series: Vec<SlotSeries>,
    /// Per-policy eviction forensics, aligned with `runs` (recorded by
    /// the suite runner's [`EvictionAudit`] observer on the same run).
    pub audits: Vec<EvictionAudit>,
    /// Per-policy per-app fairness accounting, aligned with `runs`.
    pub fairness: Vec<Fairness>,
    /// Per-policy pool-headroom tracking, aligned with `runs`.
    pub pressure: Vec<MemoryPressure>,
    /// SPES per-function category labels, as they stood after the run
    /// (for Figs. 10 and 12). Empty when the suite does not include
    /// `spes`.
    pub spes_labels: Vec<&'static str>,
    /// Offline fit summary of the SPES run; `None` when the suite does
    /// not include `spes`.
    pub fit_summary: Option<spes_core::FitStats>,
}

/// The paper's default comparison suite, in the order of its tables:
/// [`crate::policies::default_suite`] builds these policies, Fig. 8
/// counts them as the baselines SPES is measured against, and
/// `repro --list-policies` marks them. A policy joins the default suite
/// by being named here.
pub const POLICY_ORDER: [&str; 6] = [
    "spes",
    "defuse",
    "hybrid-function",
    "hybrid-application",
    "fixed-keep-alive",
    "faascache",
];

impl ComparisonRun {
    /// The run of one policy by name, if it was part of the suite.
    #[must_use]
    pub fn try_run_of(&self, name: &str) -> Option<&RunResult> {
        self.runs.iter().find(|r| r.policy_name == name)
    }

    fn from_suite(entries: Vec<SuiteEntry>, n_functions: usize) -> Self {
        let (spes_labels, fit_summary) =
            entries
                .iter()
                .find(|e| e.name == "spes")
                .map_or((Vec::new(), None), |entry| {
                    let labels = (0..n_functions)
                        .map(|i| {
                            entry
                                .policy
                                .category_of(FunctionId(i as u32))
                                .unwrap_or("unknown")
                        })
                        .collect();
                    let fit = entry
                        .policy
                        .as_any()
                        .and_then(|any| any.downcast_ref::<SpesPolicy>())
                        .map(|spes| spes.fit_stats().clone());
                    (labels, fit)
                });
        let mut runs = Vec::new();
        let mut slot_series = Vec::new();
        let mut audits = Vec::new();
        let mut fairness = Vec::new();
        let mut pressure = Vec::new();
        for e in entries {
            runs.push(e.run);
            slot_series.push(e.series);
            audits.push(e.audit);
            fairness.push(e.fairness);
            pressure.push(e.pressure);
        }
        Self {
            runs,
            slot_series,
            audits,
            fairness,
            pressure,
            spes_labels,
            fit_summary,
        }
    }
}

/// Runs an arbitrary policy suite on `data` with the paper's
/// train/simulate split: policies are fitted on the trace's own training
/// prefix (`[0, data.train_end)`), then the full horizon is replayed
/// with metrics collected after that boundary (warm state carries
/// across it, matching the paper's reported warm-function fractions).
/// Capacity couplings such as FaaSCache's "budget = SPES's peak memory"
/// (Section V-A1) are declared on the specs and resolved by the suite
/// runner's second phase.
pub fn run_suite_comparison(
    data: &SynthTrace,
    specs: &[PolicySpec],
) -> Result<ComparisonRun, SuiteError> {
    let entries = run_suite(data, specs)?;
    Ok(ComparisonRun::from_suite(entries, data.trace.n_functions()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies;
    use spes_core::SpesConfig;

    /// The paper's six-way comparison on `data`.
    fn default_comparison(data: &SynthTrace) -> ComparisonRun {
        run_suite_comparison(data, &policies::default_suite(&SpesConfig::default())).unwrap()
    }

    #[test]
    fn cells_shrink_on_request_and_name_the_registry() {
        let full = Experiment::cell("chain-heavy", 500, 9, false).unwrap();
        assert_eq!(full.synth.n_functions, 500);
        assert_eq!(full.synth.seed, 9);
        let quick = Experiment::cell("chain-heavy", 500, 9, true).unwrap();
        assert_eq!(quick.synth.n_functions, 200);
        assert_eq!(quick.synth.days, 7);
        assert_eq!(quick.synth.seed, 9);
        let err = Experiment::cell("no-such", 10, 1, true).unwrap_err();
        assert!(
            err.contains("no-such") && err.contains("chain-heavy"),
            "{err}"
        );
        let err = Experiment::cell("chain-heavy", 0, 9, false).unwrap_err();
        assert!(err.contains("at least one function"), "{err}");
    }

    #[test]
    fn comparison_produces_all_policies() {
        let data = Experiment::sized(120, 7).generate();
        let cmp = default_comparison(&data);
        assert_eq!(cmp.runs.len(), POLICY_ORDER.len());
        for name in POLICY_ORDER {
            assert_eq!(cmp.try_run_of(name).unwrap().policy_name, name);
        }
        assert_eq!(cmp.spes_labels.len(), 120);
        assert!(cmp.fit_summary.is_some());
    }

    #[test]
    fn try_run_of_is_total() {
        let data = Experiment::sized(60, 7).generate();
        let cmp = default_comparison(&data);
        assert!(cmp.try_run_of("spes").is_some());
        assert!(cmp.try_run_of("oracle").is_none());
        assert!(cmp.try_run_of("no-such-policy").is_none());
    }

    #[test]
    fn policies_see_identical_workload() {
        let data = Experiment::sized(100, 9).generate();
        let cmp = default_comparison(&data);
        let total = cmp.runs[0].total_invocations();
        for run in &cmp.runs {
            assert_eq!(run.total_invocations(), total, "{}", run.policy_name);
        }
    }

    #[test]
    fn comparison_measures_on_the_trace_boundary() {
        // A non-default 10-day/8-day split: the runners must fit and
        // measure on the trace's own boundary, not a convention.
        let data = synth::generate(&SynthConfig {
            n_functions: 100,
            days: 10,
            train_days: 8,
            seed: 21,
            ..SynthConfig::default()
        });
        assert_eq!(data.train_end, 8 * spes_trace::SLOTS_PER_DAY);
        let cmp = default_comparison(&data);
        for run in &cmp.runs {
            assert_eq!(run.start, data.train_end, "{}", run.policy_name);
            assert_eq!(run.end, data.trace.n_slots, "{}", run.policy_name);
        }
    }

    #[test]
    fn scenario_experiment_resolves_registry_names() {
        let exp = Experiment::scenario("chain-heavy", 80, 3).unwrap();
        assert_eq!(exp.synth.n_functions, 80);
        assert_eq!(exp.synth.seed, 3);
        assert!(exp.synth.chain_prob > SynthConfig::default().chain_prob);
        assert!(Experiment::scenario("no-such", 80, 3).is_none());
    }

    #[test]
    fn faascache_respects_spes_peak_budget() {
        let data = Experiment::sized(150, 11).generate();
        let cmp = default_comparison(&data);
        let spes_peak = cmp.try_run_of("spes").unwrap().peak_loaded;
        let fc_peak = cmp.try_run_of("faascache").unwrap().peak_loaded;
        assert!(
            fc_peak <= spes_peak.max(1),
            "fc {fc_peak} > spes {spes_peak}"
        );
    }

    #[test]
    fn custom_suites_run_without_spes() {
        let data = Experiment::sized(60, 7).generate();
        let suite =
            policies::suite_of(&["defuse", "fixed-keep-alive"], &SpesConfig::default()).unwrap();
        let cmp = run_suite_comparison(&data, &suite).unwrap();
        assert_eq!(cmp.runs.len(), 2);
        assert!(cmp.spes_labels.is_empty());
        assert!(cmp.fit_summary.is_none());
    }

    #[test]
    fn faascache_without_spes_is_a_suite_error() {
        let data = Experiment::sized(40, 7).generate();
        let suite = policies::suite_of(&["faascache"], &SpesConfig::default()).unwrap();
        assert!(matches!(
            run_suite_comparison(&data, &suite),
            Err(SuiteError::UnknownCapacityRef { .. })
        ));
    }
}
