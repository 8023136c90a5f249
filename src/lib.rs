//! Facade crate for the SPES reproduction workspace.
//!
//! Re-exports the public API of every member crate so downstream users can
//! depend on a single `spes` package. See the README for a quickstart and
//! `docs/ARCHITECTURE.md` for the crate map and engine design.

pub use spes_baselines as baselines;
pub use spes_bench as bench;
pub use spes_core as core;
pub use spes_lint as lint;
pub use spes_sim as sim;
pub use spes_stats as stats;
pub use spes_trace as trace;

// Workload scenarios are the entry point for most experiments; surface
// the registry at the facade root alongside the crates.
pub use spes_trace::{
    scenario_config, scenario_names, Scenario, SynthConfig, SynthTrace, SCENARIOS,
};

// The policy registry is the other experiment axis: named policies,
// composable suites, and the suite-based comparison runner.
pub use spes_bench::{
    default_suite, policy_names, run_suite_comparison, spec_of, suite_of, ComparisonRun,
};
pub use spes_sim::suite::{run_suite, CapacityRule, PolicyFactory, PolicySpec};
