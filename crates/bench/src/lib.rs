//! Experiment harness for the SPES reproduction.
//!
//! One module per figure group, plus the shared scenario runner. The
//! figure registry ([`figures::FIGURES`]) lists them; the `repro` binary
//! loops over it to regenerate every table and figure of the paper's
//! evaluation section on the synthetic Azure-like workload (or a real
//! trace loaded from CSV) and emits both text tables and JSON
//! (`results/*.json`).

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![expect(clippy::disallowed_methods, reason = "the bench harness times runs")]

pub mod bench_cli;
mod factory;
pub mod figures;
pub mod figures_main;
pub mod figures_sweep;
pub mod figures_trace;
pub mod fuzz;
pub mod matrix;
mod par;
pub mod perf;
pub mod policies;
pub mod replay;
pub mod scenario;

pub use fuzz::{
    evaluate_point, minimise_finding, run_fuzz, scenario_snippet, validate_report, BestPoint,
    FuzzConfig, FuzzFinding, FuzzReport, KnobPoint, PointScore,
};
pub use matrix::{fold_matrix, MatrixCell, PolicyAggregate};
pub use perf::{
    bench_engine, bench_journal, bench_serve, gate_against_baseline, BenchReport, BenchRow,
    EngineBenchReport, EngineBenchRow, GateReport, JournalBenchReport, JournalBenchRow,
    ServeBenchReport, ServeBenchRow,
};
pub use policies::{
    default_suite, policy_names, spec_of, suite_of, try_spec_of, CellError, PolicyCell,
    RegisteredPolicy, UnknownPolicy, REGISTRY,
};
pub use replay::{
    check, describe_event, record, slot_events, summarize, why_evict, CheckReport, Divergence,
    EvictExplanation, JournalSummary, RecordConfig, Recording,
};
pub use scenario::{run_suite_comparison, ComparisonRun, Experiment, POLICY_ORDER};
