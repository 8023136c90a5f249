//! First-class policy suites: declarative construction and a two-phase
//! suite runner.
//!
//! Policy construction is a value: a [`PolicyFactory`] knows how to
//! build a fitted [`Policy`] from a [`FitContext`] (the trace, its
//! training boundary, and the runs completed so far), and a [`PolicySpec`]
//! is a named, shareable handle on a factory plus a declarative
//! [`CapacityRule`]. The registered policies' factories are the rows of
//! the policy registry in `spes_bench`, each a build function and an
//! optional capacity donor. [`run_suite`] executes any list of specs on a
//! trace under the paper's train/simulate protocol:
//!
//! 1. **Phase one** builds and runs every spec whose capacity is
//!    self-contained ([`CapacityRule::Unlimited`] or
//!    [`CapacityRule::Fixed`]).
//! 2. **Phase two** builds and runs the specs whose capacity references a
//!    phase-one run ([`CapacityRule::PeakOf`] — e.g. FaaSCache's
//!    "budget = SPES's peak memory" from Section V-A1).
//!
//! It returns one [`SuiteEntry`] per spec, in spec order regardless of
//! execution phase, so a suite's output order is exactly its declaration
//! order and callers read a member by its position in the spec list.

use crate::engine::{SimConfig, SimError, Simulation};
use crate::events::{
    EvictionAudit, Fairness, MemoryPressure, Observer, ObserverSet, RunCollector, SlotSeries,
};
use crate::metrics::RunResult;
use crate::policy::Policy;
use spes_trace::{Slot, SynthTrace, Trace};
use std::sync::Arc;

/// How a policy's memory capacity is determined when its suite runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapacityRule {
    /// No capacity limit (the paper's default assumption).
    Unlimited,
    /// A fixed instance budget of at least 1.
    Fixed(usize),
    /// The peak loaded-instance count of another suite member's run
    /// (clamped to at least 1). The referenced policy must be in the same
    /// suite and must not itself use [`CapacityRule::PeakOf`].
    PeakOf(String),
}

impl CapacityRule {
    /// Convenience constructor for [`CapacityRule::PeakOf`].
    #[must_use]
    pub fn peak_of(reference: impl Into<String>) -> Self {
        Self::PeakOf(reference.into())
    }

    /// Whether this rule can be resolved without any prior run.
    #[must_use]
    pub fn is_self_contained(&self) -> bool {
        !matches!(self, Self::PeakOf(_))
    }
}

/// Everything a [`PolicyFactory`] may consult when building a policy: the
/// trace, the training window carried by the trace itself, and the runs
/// already completed in this suite (phase-two factories may read their
/// capacity donors' results; clairvoyant policies may read the full
/// trace — that asymmetry is the point of the oracle).
#[derive(Debug)]
pub struct FitContext<'a> {
    /// The workload trace.
    pub trace: &'a Trace,
    /// First training slot (inclusive).
    pub train_start: Slot,
    /// End of the training window (exclusive) — the boundary the trace
    /// itself carries; metrics are collected from here on.
    pub train_end: Slot,
    /// Suite runs completed before this build (phase-one results when
    /// building a phase-two policy; empty during phase one).
    pub prior: &'a [SuiteEntry],
}

impl<'a> FitContext<'a> {
    /// Number of functions in the trace.
    #[must_use]
    pub fn n_functions(&self) -> usize {
        self.trace.n_functions()
    }

    /// The completed run of a prior suite member, if any.
    #[must_use]
    pub fn prior_run(&self, name: &str) -> Option<&RunResult> {
        self.prior.iter().find(|e| e.name == name).map(|e| &e.run)
    }
}

/// Builds a fitted [`Policy`] from a [`FitContext`]. The name-keyed
/// policy registry in `spes_bench` implements it once for all of its
/// rows; a harness may wrap a spec in its own factory (e.g. to time each
/// fit).
pub trait PolicyFactory: Send + Sync {
    /// Registry key and report name of the built policy. Must match
    /// `Policy::name` of the built instance.
    fn name(&self) -> &'static str;

    /// Builds a policy fitted for `ctx`.
    fn build(&self, ctx: &FitContext) -> Box<dyn Policy>;

    /// Declarative capacity requirement of the built policy's run.
    fn capacity_rule(&self) -> CapacityRule {
        CapacityRule::Unlimited
    }
}

/// A named, cloneable suite member: a shared factory plus its (possibly
/// overridden) capacity rule.
#[derive(Clone)]
pub struct PolicySpec {
    factory: Arc<dyn PolicyFactory>,
    capacity: CapacityRule,
}

impl std::fmt::Debug for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicySpec")
            .field("name", &self.name())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl PolicySpec {
    /// Wraps a factory, taking its default capacity rule.
    pub fn new(factory: impl PolicyFactory + 'static) -> Self {
        let capacity = factory.capacity_rule();
        Self {
            factory: Arc::new(factory),
            capacity,
        }
    }

    /// Overrides the capacity rule (e.g. run a normally-unlimited policy
    /// under a fixed budget).
    #[must_use]
    pub fn with_capacity(mut self, rule: CapacityRule) -> Self {
        self.capacity = rule;
        self
    }

    /// The spec's registry name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.factory.name()
    }

    /// The spec's effective capacity rule.
    #[must_use]
    pub fn capacity(&self) -> &CapacityRule {
        &self.capacity
    }

    /// Builds the policy for `ctx` (delegates to the factory).
    #[must_use]
    pub fn build(&self, ctx: &FitContext) -> Box<dyn Policy> {
        self.factory.build(ctx)
    }
}

/// One completed suite member: its name, run, resolved capacity, and the
/// policy instance as it stood after the simulation (post-run state such
/// as online re-categorisations is visible through [`Policy::category_of`]
/// and [`Policy::as_any`]).
pub struct SuiteEntry {
    /// Spec / policy name.
    pub name: String,
    /// The simulation result.
    pub run: RunResult,
    /// Per-slot loaded/cold/EMCR curves over the measured window,
    /// recorded by a [`SlotSeries`] observer during the same run — the
    /// figures read time series from here instead of re-simulating.
    pub series: SlotSeries,
    /// Eviction forensics (by cause, premature-reload fraction) recorded
    /// over the same run, with re-loads within
    /// [`PREMATURE_RELOAD_WINDOW`] slots counted as premature.
    pub audit: EvictionAudit,
    /// Per-app cold-start burden vs. invocation share over the measured
    /// window of the same run.
    pub fairness: Fairness,
    /// Pool headroom tracking against the run's resolved capacity (or
    /// pressure budget) over the same run.
    pub pressure: MemoryPressure,
    /// The capacity the run executed under (`None` = unlimited).
    pub resolved_capacity: Option<usize>,
    /// The policy after the run.
    pub policy: Box<dyn Policy>,
}

/// Re-loads within this many slots of an eviction count as premature in
/// [`SuiteEntry::audit`] — the industry-standard 10-minute keep-alive
/// window: evicting something that returns faster than that is a call a
/// fixed keep-alive would have got right.
pub const PREMATURE_RELOAD_WINDOW: Slot = 10;

impl std::fmt::Debug for SuiteEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuiteEntry")
            .field("name", &self.name)
            .field("resolved_capacity", &self.resolved_capacity)
            .finish()
    }
}

/// Why a suite could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuiteError {
    /// Two specs share a name; results are name-keyed, so names must be
    /// unique.
    DuplicateName(String),
    /// A [`CapacityRule::Fixed`] budget of 0: the policy's first cold
    /// start would have nowhere to go.
    ZeroCapacity(String),
    /// A [`CapacityRule::PeakOf`] references a policy absent from the
    /// suite.
    UnknownCapacityRef {
        /// The spec with the dangling reference.
        policy: String,
        /// The missing reference.
        reference: String,
    },
    /// A [`CapacityRule::PeakOf`] references a policy that is itself
    /// capacity-dependent (only one resolution phase is supported).
    UnresolvableCapacityRef {
        /// The spec with the chained reference.
        policy: String,
        /// The capacity-dependent reference.
        reference: String,
    },
    /// The engine refused a spec's simulation window, e.g. a training
    /// boundary past the trace's horizon.
    Simulation {
        /// The spec whose run failed.
        policy: String,
        /// Why the engine refused the window.
        error: SimError,
    },
    /// The trace's training window `[0, train_end)` is empty, so there
    /// is nothing to fit a policy on.
    EmptyTrainingWindow,
    /// A run did not hand back one of the observers the suite attached.
    MissingObserver {
        /// The spec whose run lost the observer.
        policy: String,
        /// The observer's type name.
        observer: &'static str,
    },
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DuplicateName(name) => write!(f, "duplicate policy name {name:?} in suite"),
            Self::ZeroCapacity(name) => write!(f, "policy {name:?} has a fixed capacity of 0"),
            Self::UnknownCapacityRef { policy, reference } => write!(
                f,
                "policy {policy:?} takes its capacity from {reference:?}, \
                 which is not in the suite"
            ),
            Self::UnresolvableCapacityRef { policy, reference } => write!(
                f,
                "policy {policy:?} takes its capacity from {reference:?}, \
                 which is itself capacity-dependent"
            ),
            Self::Simulation { policy, error } => {
                write!(f, "policy {policy:?} could not be simulated: {error}")
            }
            Self::EmptyTrainingWindow => write!(f, "the trace's training window is empty"),
            Self::MissingObserver { policy, observer } => {
                write!(
                    f,
                    "the run of policy {policy:?} lost its {observer} observer"
                )
            }
        }
    }
}

impl std::error::Error for SuiteError {}

/// Checks a suite's static invariants (unique names, non-zero fixed
/// capacities, resolvable capacity references) without running
/// anything. [`run_suite`] performs the same checks; validating up front
/// lets batch drivers (the matrix runner) fail once before fanning out.
pub fn validate_suite(specs: &[PolicySpec]) -> Result<(), SuiteError> {
    for (i, spec) in specs.iter().enumerate() {
        if specs[..i].iter().any(|s| s.name() == spec.name()) {
            return Err(SuiteError::DuplicateName(spec.name().to_owned()));
        }
        if spec.capacity() == &CapacityRule::Fixed(0) {
            return Err(SuiteError::ZeroCapacity(spec.name().to_owned()));
        }
        if let CapacityRule::PeakOf(reference) = spec.capacity() {
            match specs.iter().find(|s| s.name() == reference.as_str()) {
                None => {
                    return Err(SuiteError::UnknownCapacityRef {
                        policy: spec.name().to_owned(),
                        reference: reference.clone(),
                    })
                }
                Some(donor) if !donor.capacity().is_self_contained() => {
                    return Err(SuiteError::UnresolvableCapacityRef {
                        policy: spec.name().to_owned(),
                        reference: reference.clone(),
                    })
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// Moves the observer of type `T` out of the finished run of `policy`.
fn take_observer<T: Observer + 'static>(
    observers: &mut ObserverSet,
    policy: &str,
) -> Result<T, SuiteError> {
    observers.take().ok_or_else(|| SuiteError::MissingObserver {
        policy: policy.to_owned(),
        observer: std::any::type_name::<T>(),
    })
}

/// Runs every spec on `data` under the paper's protocol: each policy is
/// built from the trace's own training window `[0, train_end)`, then the
/// full horizon is replayed with metrics collected after the boundary
/// (warm state carries across it). Capacity-dependent specs run in a
/// second phase with their donors' results available via
/// [`FitContext::prior`].
///
/// Returns one entry per spec, in spec order, or
/// [`SuiteError::EmptyTrainingWindow`] when `data.train_end` is 0.
pub fn run_suite(data: &SynthTrace, specs: &[PolicySpec]) -> Result<Vec<SuiteEntry>, SuiteError> {
    validate_suite(specs)?;
    if data.train_end == 0 {
        return Err(SuiteError::EmptyTrainingWindow);
    }
    let trace = &data.trace;
    let train_end = data.train_end;
    let window = SimConfig::new(0, trace.n_slots).with_metrics_start(train_end);

    let run_spec = |spec: &PolicySpec, prior: &[SuiteEntry]| -> Result<SuiteEntry, SuiteError> {
        let name = spec.name();
        let ctx = FitContext {
            trace,
            train_start: 0,
            train_end,
            prior,
        };
        let resolved_capacity = match spec.capacity() {
            CapacityRule::Unlimited => None,
            CapacityRule::Fixed(budget) => Some(*budget),
            CapacityRule::PeakOf(reference) => {
                let donor =
                    ctx.prior_run(reference)
                        .ok_or_else(|| SuiteError::UnknownCapacityRef {
                            policy: name.to_owned(),
                            reference: reference.clone(),
                        })?;
                Some(donor.peak_loaded.max(1))
            }
        };
        let mut policy = spec.build(&ctx);
        let config = match resolved_capacity {
            Some(budget) => window.with_capacity(budget),
            None => window,
        };
        let mut observers = Simulation::new(trace, config)
            .with_observer(Box::new(RunCollector::new()))
            .with_observer(Box::new(SlotSeries::new()))
            .with_observer(Box::new(EvictionAudit::new(PREMATURE_RELOAD_WINDOW)))
            .with_observer(Box::new(Fairness::from_trace(trace)))
            .with_observer(Box::new(MemoryPressure::new()))
            .run(policy.as_mut())
            .map_err(|error| SuiteError::Simulation {
                policy: name.to_owned(),
                error,
            })?;
        let collector: RunCollector = take_observer(&mut observers, name)?;
        Ok(SuiteEntry {
            name: name.to_owned(),
            run: collector.into_result(),
            series: take_observer(&mut observers, name)?,
            audit: take_observer(&mut observers, name)?,
            fairness: take_observer(&mut observers, name)?,
            pressure: take_observer(&mut observers, name)?,
            resolved_capacity,
            policy,
        })
    };

    // Phase one: self-contained specs, in spec order.
    let mut first_wave: Vec<SuiteEntry> = Vec::new();
    let mut first_idx: Vec<usize> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if spec.capacity().is_self_contained() {
            first_wave.push(run_spec(spec, &[])?);
            first_idx.push(i);
        }
    }

    // Phase two: capacity-dependent specs, with phase one as prior.
    let mut second_wave: Vec<(usize, SuiteEntry)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if !spec.capacity().is_self_contained() {
            second_wave.push((i, run_spec(spec, &first_wave)?));
        }
    }

    // Reassemble in spec order: every spec ran in exactly one phase.
    let mut ordered: Vec<(usize, SuiteEntry)> = first_idx
        .into_iter()
        .zip(first_wave)
        .chain(second_wave)
        .collect();
    ordered.sort_unstable_by_key(|&(i, _)| i);
    Ok(ordered.into_iter().map(|(_, entry)| entry).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{KeepForever, NoKeepAlive};
    use spes_trace::{synth, SynthConfig};

    /// The trivial brackets: [`KeepForever`] when `keep`, else
    /// [`NoKeepAlive`].
    struct Bound {
        keep: bool,
    }

    impl PolicyFactory for Bound {
        fn name(&self) -> &'static str {
            if self.keep {
                "keep-forever"
            } else {
                "no-keep-alive"
            }
        }

        fn build(&self, _ctx: &FitContext) -> Box<dyn Policy> {
            if self.keep {
                Box::new(KeepForever)
            } else {
                Box::new(NoKeepAlive)
            }
        }
    }

    fn keep_forever() -> PolicySpec {
        PolicySpec::new(Bound { keep: true })
    }

    fn no_keep_alive() -> PolicySpec {
        PolicySpec::new(Bound { keep: false })
    }

    fn tiny_trace() -> SynthTrace {
        synth::generate(&SynthConfig {
            n_functions: 30,
            days: 4,
            train_days: 3,
            seed: 5,
            ..SynthConfig::default()
        })
    }

    #[test]
    fn a_training_boundary_past_the_horizon_is_an_error() {
        let mut data = tiny_trace();
        data.train_end = data.trace.n_slots + 1;
        let err = run_suite(&data, &[keep_forever()]).unwrap_err();
        assert!(
            matches!(
                &err,
                SuiteError::Simulation { policy, error: SimError::MetricsStartOutsideWindow { .. } }
                    if policy == "keep-forever"
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("could not be simulated"), "{err}");
    }

    #[test]
    fn an_empty_training_window_is_an_error() {
        // A zero-day training window is public configuration.
        let data = synth::generate(&SynthConfig {
            n_functions: 30,
            days: 2,
            train_days: 0,
            seed: 5,
            ..SynthConfig::default()
        });
        assert_eq!(data.train_end, 0);
        let specs = [keep_forever()];
        assert_eq!(
            run_suite(&data, &specs).unwrap_err(),
            SuiteError::EmptyTrainingWindow
        );
    }

    #[test]
    fn suite_preserves_spec_order_across_phases() {
        let data = tiny_trace();
        // Capacity-dependent member declared first: it still comes back
        // first, despite running in phase two.
        let specs = vec![
            no_keep_alive().with_capacity(CapacityRule::peak_of("keep-forever")),
            keep_forever(),
        ];
        let out = run_suite(&data, &specs).unwrap();
        assert_eq!(out[0].name, "no-keep-alive");
        assert_eq!(out[1].name, "keep-forever");
        let donor_peak = out[1].run.peak_loaded.max(1);
        assert_eq!(out[0].resolved_capacity, Some(donor_peak));
        assert_eq!(out[1].resolved_capacity, None);
    }

    #[test]
    fn fixed_capacity_caps_the_run() {
        let data = tiny_trace();
        let specs = vec![keep_forever().with_capacity(CapacityRule::Fixed(3))];
        let out = run_suite(&data, &specs).unwrap();
        assert!(out[0].run.peak_loaded <= 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let data = tiny_trace();
        let specs = vec![keep_forever(), keep_forever()];
        assert_eq!(
            run_suite(&data, &specs).unwrap_err(),
            SuiteError::DuplicateName("keep-forever".to_owned())
        );
    }

    #[test]
    fn dangling_capacity_reference_rejected() {
        let specs = vec![no_keep_alive().with_capacity(CapacityRule::peak_of("spes"))];
        assert_eq!(
            validate_suite(&specs).unwrap_err(),
            SuiteError::UnknownCapacityRef {
                policy: "no-keep-alive".to_owned(),
                reference: "spes".to_owned(),
            }
        );
    }

    #[test]
    fn zero_fixed_capacity_rejected() {
        let specs = vec![keep_forever().with_capacity(CapacityRule::Fixed(0))];
        assert_eq!(
            validate_suite(&specs).unwrap_err(),
            SuiteError::ZeroCapacity("keep-forever".to_owned())
        );
    }

    #[test]
    fn chained_capacity_reference_rejected() {
        let specs = vec![
            no_keep_alive().with_capacity(CapacityRule::peak_of("keep-forever")),
            keep_forever().with_capacity(CapacityRule::peak_of("no-keep-alive")),
        ];
        assert!(matches!(
            validate_suite(&specs).unwrap_err(),
            SuiteError::UnresolvableCapacityRef { .. }
        ));
    }

    #[test]
    fn runs_measure_on_the_trace_boundary() {
        let data = tiny_trace();
        let out = run_suite(&data, &[keep_forever()]).unwrap();
        let run = &out[0].run;
        assert_eq!(run.start, data.train_end);
        assert_eq!(run.end, data.trace.n_slots);
    }

    #[test]
    fn specs_are_shareable_across_threads() {
        let data = tiny_trace();
        let specs = vec![keep_forever(), no_keep_alive()];
        let totals: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (data, specs) = (&data, &specs);
                    scope.spawn(move || run_suite(data, specs).unwrap()[0].run.total_invocations())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(totals[0], totals[1]);
    }

    #[test]
    fn error_messages_name_the_parties() {
        let err = SuiteError::UnknownCapacityRef {
            policy: "faascache".to_owned(),
            reference: "spes".to_owned(),
        };
        let msg = err.to_string();
        assert!(msg.contains("faascache") && msg.contains("spes"), "{msg}");
    }
}
