//! Trace substrate for the SPES reproduction.
//!
//! Provides the invocation-trace data model mirroring the Azure Functions
//! 2019 dataset (functions, applications, users, triggers, per-minute
//! invocation counts), the waiting-time / active-time / active-number
//! sequence extraction of Section IV of the paper, a synthetic workload
//! generator reproducing the dataset's published statistics, and CSV IO
//! so the genuine dataset can be substituted in.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![expect(clippy::disallowed_types, reason = "map order never reaches an output")]

pub mod io;
pub mod model;
pub mod series;
pub mod synth;

pub use model::{
    AppId, FunctionId, FunctionMeta, Slot, SlotBatches, SlotBatchesBuilder, SparseSeries, Trace,
    TriggerType, UserId, SLOTS_PER_DAY,
};
pub use series::Sequences;
pub use synth::{
    scenario_config, scenario_names, Archetype, ExternalTraceError, FunctionSpec, Scenario,
    StreamError, SynthConfig, SynthStream, SynthTrace, SCENARIOS,
};
