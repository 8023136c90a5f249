//! The name-keyed policy registry.
//!
//! Mirrors the scenario registry (`spes_trace::synth::scenarios`) on the
//! policy axis: every provisioning policy the workspace knows how to run
//! is one [`REGISTRY`] row holding its stable name, a one-line summary
//! for `repro --list-policies`, how to build it from a [`FitContext`],
//! and the suite member whose peak memory sizes its pool, if any. Adding
//! a policy is its [`Policy`] impl plus one row here.
//!
//! The default suite reproduces the paper's Section V comparison: SPES
//! and five baselines, exactly the names in
//! [`crate::scenario::POLICY_ORDER`], which is the one statement of that
//! membership. Outside it are the clairvoyant `oracle` upper bound and
//! the trivial `no-keep-alive` / `keep-forever` brackets — runnable by
//! name, excluded from paper-facing defaults.

use crate::factory::RowFactory;
use crate::scenario::POLICY_ORDER;
use spes_baselines::{Defuse, FaasCache, FixedKeepAlive, Granularity, HybridHistogram, Oracle};
use spes_core::{SpesConfig, SpesPolicy};
use spes_sim::suite::{FitContext, PolicySpec};
use spes_sim::{KeepForever, NoKeepAlive, Policy};
use spes_trace::SynthTrace;

/// One registry row: the policy's name, a one-line summary, how to
/// build it, and where its memory budget comes from.
#[derive(Debug, Clone, Copy)]
pub struct RegisteredPolicy {
    /// Registry key (also the policy's report name).
    pub name: &'static str,
    /// One-line description for `repro --list-policies`.
    pub summary: &'static str,
    /// Builds the policy fitted for a suite run. The [`SpesConfig`]
    /// parameterises SPES itself; the other policies ignore it.
    pub build: fn(&FitContext, &SpesConfig) -> Box<dyn Policy>,
    /// The suite member whose peak loaded-instance count is this
    /// policy's capacity
    /// ([`CapacityRule::PeakOf`](spes_sim::suite::CapacityRule::PeakOf));
    /// `None` runs it unlimited.
    pub capacity_donor: Option<&'static str>,
}

impl RegisteredPolicy {
    /// The row as a suite member, with `spes_cfg` for SPES.
    #[must_use]
    fn spec(self, spes_cfg: &SpesConfig) -> PolicySpec {
        PolicySpec::new(RowFactory {
            row: self,
            spes_cfg: spes_cfg.clone(),
        })
    }
}

/// Every registered policy, default-suite members first, in
/// [`crate::scenario::POLICY_ORDER`] order.
pub const REGISTRY: [RegisteredPolicy; 9] = [
    RegisteredPolicy {
        name: "spes",
        summary: "the paper's pattern-based pre-warm/evict scheduler",
        build: |ctx, cfg| {
            Box::new(SpesPolicy::fit(
                ctx.trace,
                ctx.train_start,
                ctx.train_end,
                cfg.clone(),
            ))
        },
        capacity_donor: None,
    },
    RegisteredPolicy {
        name: "defuse",
        summary: "dependency-guided keep-alive (Defuse)",
        build: |ctx, _| {
            Box::new(Defuse::paper_default(
                ctx.trace,
                ctx.train_start,
                ctx.train_end,
            ))
        },
        capacity_donor: None,
    },
    RegisteredPolicy {
        name: "hybrid-function",
        summary: "Shahrad et al. histogram policy, per function",
        build: |ctx, _| {
            Box::new(HybridHistogram::fit(
                ctx.trace,
                ctx.train_start,
                ctx.train_end,
                Granularity::Function,
            ))
        },
        capacity_donor: None,
    },
    RegisteredPolicy {
        name: "hybrid-application",
        summary: "Shahrad et al. histogram policy, per application",
        build: |ctx, _| {
            Box::new(HybridHistogram::fit(
                ctx.trace,
                ctx.train_start,
                ctx.train_end,
                Granularity::Application,
            ))
        },
        capacity_donor: None,
    },
    RegisteredPolicy {
        name: "fixed-keep-alive",
        summary: "industry-standard fixed 10-minute keep-alive",
        build: |ctx, _| Box::new(FixedKeepAlive::paper_default(ctx.n_functions())),
        capacity_donor: None,
    },
    // Section V-A1 gives FaaSCache SPES's peak memory as its budget; the
    // suite runner resolves that in its second phase, so a suite with
    // faascache but no spes fails validation.
    RegisteredPolicy {
        name: "faascache",
        summary: "greedy-dual caching under SPES's peak-memory budget",
        build: |ctx, _| Box::new(FaasCache::new(ctx.n_functions())),
        capacity_donor: Some("spes"),
    },
    // The only row that reads the trace past the training boundary,
    // which is exactly its job; it rides out one-slot gaps only.
    RegisteredPolicy {
        name: "oracle",
        summary: "clairvoyant upper bound (reads the future; not a baseline)",
        build: |ctx, _| Box::new(Oracle::frugal(ctx.trace)),
        capacity_donor: None,
    },
    RegisteredPolicy {
        name: "no-keep-alive",
        summary: "always-evict lower bound: every re-invocation is cold",
        build: |_, _| Box::new(NoKeepAlive),
        capacity_donor: None,
    },
    RegisteredPolicy {
        name: "keep-forever",
        summary: "never-evict upper bracket: maximal memory, no re-colds",
        build: |_, _| Box::new(KeepForever),
        capacity_donor: None,
    },
];

/// Names of every registered policy, registry order.
#[must_use]
pub fn policy_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|p| p.name).collect()
}

/// The spec of one registered policy by name; `None` for unknown names.
/// `spes_cfg` parameterises SPES itself (the baselines ignore it).
#[must_use]
pub fn spec_of(name: &str, spes_cfg: &SpesConfig) -> Option<PolicySpec> {
    REGISTRY
        .iter()
        .find(|p| p.name == name)
        .map(|p| p.spec(spes_cfg))
}

/// An unknown policy name, with the registered alternatives for the
/// error message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy(pub String);

impl std::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown policy {:?}; registered: {}",
            self.0,
            policy_names().join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

impl From<UnknownPolicy> for String {
    fn from(err: UnknownPolicy) -> Self {
        err.to_string()
    }
}

/// Why a [`PolicyCell`] could not be made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The name is not registered.
    Unknown(UnknownPolicy),
    /// The trace's training window `[0, train_end)` is empty, so there
    /// is nothing to fit a policy on.
    EmptyTrainingWindow,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unknown(err) => err.fmt(f),
            Self::EmptyTrainingWindow => write!(f, "the trace's training window is empty"),
        }
    }
}

impl std::error::Error for CellError {}

impl From<CellError> for String {
    fn from(err: CellError) -> Self {
        err.to_string()
    }
}

/// [`spec_of`] with the registered alternatives in the error.
///
/// # Errors
/// Returns [`UnknownPolicy`] for names outside [`REGISTRY`].
pub fn try_spec_of(name: &str, spes_cfg: &SpesConfig) -> Result<PolicySpec, UnknownPolicy> {
    spec_of(name, spes_cfg).ok_or_else(|| UnknownPolicy(name.to_owned()))
}

/// Builds a suite from registry names, preserving order. FaaSCache keeps
/// its `PeakOf("spes")` capacity rule, so a suite selecting `faascache`
/// without `spes` is rejected later by suite validation — exactly the
/// paper's coupling made explicit.
pub fn suite_of(names: &[&str], spes_cfg: &SpesConfig) -> Result<Vec<PolicySpec>, UnknownPolicy> {
    names
        .iter()
        .map(|&name| try_spec_of(name, spes_cfg))
        .collect()
}

/// One registered policy bound to the trace it is fitted on: the policy
/// half of a single-policy cell, shared by the bench binaries,
/// `spes-replay` and `spes-serve`. Every instance [`PolicyCell::build`]
/// returns is fitted afresh on the trace's training window
/// (`[0, train_end)`) with no prior runs.
pub struct PolicyCell<'t> {
    spec: PolicySpec,
    data: &'t SynthTrace,
}

impl<'t> PolicyCell<'t> {
    /// Resolves `name` in the registry for fitting on `data`, with the
    /// default SPES configuration.
    ///
    /// # Errors
    /// Returns [`CellError::Unknown`] for names outside [`REGISTRY`] and
    /// [`CellError::EmptyTrainingWindow`] when `data.train_end` is 0.
    pub fn new(name: &str, data: &'t SynthTrace) -> Result<Self, CellError> {
        let spec = try_spec_of(name, &SpesConfig::default()).map_err(CellError::Unknown)?;
        if data.train_end == 0 {
            return Err(CellError::EmptyTrainingWindow);
        }
        Ok(Self { spec, data })
    }

    /// Keeps the cell only if its capacity needs no other policy's run.
    /// FaaSCache sizes its pool from SPES's peak, which a run of one
    /// policy cannot supply.
    ///
    /// # Errors
    /// Names the policy when its capacity needs a donor.
    pub fn standalone(self) -> Result<Self, String> {
        if self.spec.capacity().is_self_contained() {
            Ok(self)
        } else {
            Err(format!(
                "policy {:?} needs a capacity donor and cannot run standalone",
                self.spec.name()
            ))
        }
    }

    /// A freshly fitted instance of the policy.
    #[must_use]
    pub fn build(&self) -> Box<dyn Policy> {
        self.spec.build(&FitContext {
            trace: &self.data.trace,
            train_start: 0,
            train_end: self.data.train_end,
            prior: &[],
        })
    }
}

/// The paper's six-way comparison suite: the policies named in
/// [`POLICY_ORDER`], in that order.
#[must_use]
pub fn default_suite(spes_cfg: &SpesConfig) -> Vec<PolicySpec> {
    POLICY_ORDER
        .iter()
        .filter_map(|name| spec_of(name, spes_cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_row_resolves_to_a_spec_with_its_name() {
        let cfg = SpesConfig::default();
        for row in REGISTRY {
            let spec = spec_of(row.name, &cfg).expect(row.name);
            assert_eq!(spec.name(), row.name);
        }
    }

    #[test]
    fn unknown_names_are_rejected_with_context() {
        let cfg = SpesConfig::default();
        assert!(spec_of("lru", &cfg).is_none());
        let err = suite_of(&["spes", "lru"], &cfg).unwrap_err();
        assert_eq!(err, UnknownPolicy("lru".to_owned()));
        assert!(err.to_string().contains("keep-forever"), "{err}");
    }

    #[test]
    fn policy_cells_resolve_fit_and_reject_donors() {
        let data = crate::scenario::Experiment::cell("quick", 30, 3, true)
            .unwrap()
            .generate();
        let err = PolicyCell::new("lru", &data).err().unwrap();
        assert_eq!(err, CellError::Unknown(UnknownPolicy("lru".to_owned())));
        assert_eq!(
            String::from(err),
            format!(
                "unknown policy \"lru\"; registered: {}",
                policy_names().join(", ")
            )
        );
        let cell = PolicyCell::new("spes", &data)
            .unwrap()
            .standalone()
            .unwrap();
        assert_eq!(cell.build().name(), "spes");
        // FaaSCache resolves, but its pool is sized by a SPES run.
        let faascache = PolicyCell::new("faascache", &data).unwrap();
        assert_eq!(faascache.build().name(), "faascache");
        let err = faascache.standalone().err().unwrap();
        assert!(err.contains("capacity donor"), "{err}");
    }

    #[test]
    fn policy_cells_refuse_an_empty_training_window() {
        // A zero-day training window is public configuration.
        let data = spes_trace::synth::generate(&spes_trace::synth::SynthConfig {
            n_functions: 30,
            days: 2,
            train_days: 0,
            seed: 5,
            ..spes_trace::synth::SynthConfig::default()
        });
        assert_eq!(data.train_end, 0);
        for name in policy_names() {
            let err = PolicyCell::new(name, &data).err().unwrap();
            assert_eq!(err, CellError::EmptyTrainingWindow, "{name}");
        }
        assert!(String::from(CellError::EmptyTrainingWindow).contains("training window"));
    }

    #[test]
    fn default_suite_is_the_paper_comparison() {
        let suite = default_suite(&SpesConfig::default());
        let names: Vec<&str> = suite.iter().map(PolicySpec::name).collect();
        assert_eq!(names, POLICY_ORDER);
    }
}
