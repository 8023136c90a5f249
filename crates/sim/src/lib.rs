//! Discrete-time FaaS platform simulator for the SPES reproduction.
//!
//! Simulates a serverless platform at one-minute granularity under the
//! paper's simulation principles: executions complete within their slot,
//! cold-start latency is uniform (so cold-start *counts* are the metric),
//! and a single node holds all loaded instances. Policies implement
//! [`Policy`] and are driven by the [`engine`]: a pure event-stream
//! driver ([`Simulation`] for a trace window, [`SimDriver`] one slot at a
//! time) that narrates each run — cold/warm starts, loads, evictions,
//! slot ticks — to any set of owned [`Observer`]s (see [`events`]),
//! handed back in an [`ObserverSet`] when the run ends. The paper's
//! metrics are one such observer ([`RunCollector`], producing a
//! [`RunResult`]); others record per-slot curves ([`SlotSeries`]),
//! eviction forensics ([`EvictionAudit`]), memory pressure
//! ([`MemoryPressure`]), fairness ([`Fairness`]), or the raw stream
//! ([`EventLog`]). The [`suite`] module
//! adds declarative policy construction: factories, capacity rules, and
//! a two-phase suite runner over whole policy lists. The [`schedule`]
//! module holds the scheduling tools the policies share: a slot-keyed
//! [`Agenda`], [`Holds`] deadlines, and the idle sweep
//! [`MemoryPool::evict_where`].

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

#[macro_use]
mod wire;

pub mod engine;
pub mod events;
pub mod journal;
pub mod memory;
pub mod metrics;
pub mod policy;
pub mod report;
pub mod schedule;
pub mod serve;
mod shard;
pub mod suite;

pub use engine::{snapshot_info, SnapshotError, SnapshotInfo, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use engine::{try_simulate, SimConfig, SimDriver, SimError, Simulation, SlotOutcome};
pub use events::{
    AppShare, DynObserver, EventCtx, EventLog, EvictCause, EvictionAudit, Fairness, LoadCause,
    MemoryPressure, Observer, ObserverSet, RunCollector, RunMeta, SimEvent, SlotBatch, SlotSeries,
};
pub use journal::{
    JournalError, JournalEvent, JournalMeta, JournalObserver, JournalReader, JournalWriter,
    JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use memory::MemoryPool;
pub use metrics::RunResult;
pub use policy::{KeepForever, NoKeepAlive, Policy};
pub use report::{normalized, per_category_stats, text_table, CategoryStats};
pub use schedule::{Agenda, Holds};
pub use serve::{serve, InitRecord, ServeConfig, ServeError, ServeSummary};
pub use shard::ShardCounts;
pub use suite::{
    run_suite, validate_suite, CapacityRule, FitContext, PolicyFactory, PolicySpec, SuiteEntry,
    SuiteError, PREMATURE_RELOAD_WINDOW,
};
