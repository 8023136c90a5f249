//! Synthetic Azure-like trace generation.
//!
//! The generator stands in for the Azure Functions 2019 trace, which is
//! not bundled with the workspace. SPES's mechanisms read only the
//! trace's statistics, so the generator reproduces the published ones
//! every mechanism depends on: trigger mix, heavy-tailed invocation
//! counts, trigger-conditioned behavioural patterns, intra-app chaining,
//! temporal locality, concept shifts, and unseen functions.
//!
//! Two producers share one generation pipeline. [`generate`] materialises
//! a full [`SynthTrace`] — per-function [`SparseSeries`] plus ground
//! truth — and is what the figure runners and tests consume.
//! [`SynthStream`] (the [`stream`] module) produces the *same workload*
//! as per-slot invocation batches without ever holding per-function
//! series for the whole population at once: functions are generated one
//! app-contiguous chunk at a time and scattered into a slot-major CSR
//! layout. The two are bit-identical by construction (per-function RNG
//! streams are seeded independently of generation order) and pinned so by
//! the `stream_parity` property tests; the streaming form is what lets
//! `bench_engine --scale` drive a million functions through the engine:
//!
//! ```
//! use spes_trace::synth::{generate, SynthConfig, SynthStream};
//!
//! let cfg = SynthConfig { n_functions: 50, days: 2, train_days: 1, ..SynthConfig::default() };
//! let stream = SynthStream::build(&cfg).unwrap();
//! let full = generate(&cfg);
//! assert_eq!(stream.batches(), &full.trace.slot_batches(0, full.trace.n_slots));
//! ```

pub mod archetype;
pub mod population;
pub mod scenarios;
pub mod stream;

pub use archetype::Archetype;
pub use population::{FunctionSpec, Segment};
pub use scenarios::{scenario_config, scenario_names, Scenario, SCENARIOS};
pub use stream::{StreamError, SynthStream};

use crate::model::{Slot, SparseSeries, Trace, SLOTS_PER_DAY};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Configuration of the synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Number of functions to generate.
    pub n_functions: usize,
    /// Trace length in days (paper: 14).
    pub days: u32,
    /// Training prefix in days (paper: 12); unseen functions start after it.
    pub train_days: u32,
    /// RNG seed; the same seed reproduces the same trace bit-for-bit.
    pub seed: u64,
    /// Fraction of functions never invoked at all.
    pub silent_fraction: f64,
    /// Fraction of functions that first appear after the training window
    /// (Azure: 743 / 83,137 ~ 0.9%).
    pub unseen_fraction: f64,
    /// Fraction of functions undergoing a concept shift (Fig. 4).
    pub shift_fraction: f64,
    /// Probability that a multi-function-app member chains off a sibling
    /// (intra-app workflows, Section III-B2). The Azure-matching default
    /// is 0.55; `chain-heavy` raises it.
    pub chain_prob: f64,
    /// Probability of converting a spaced-out archetype draw into a
    /// temporal-locality burst pattern (Fig. 6 pushed to the extreme).
    /// 0.0 (the default) consumes no RNG draws, keeping default traces
    /// bit-identical across configs that leave it off.
    pub burst_bias: f64,
    /// Fraction of functions with a day-shaped load (active window +
    /// overnight silence). 0.0 (the default) consumes no RNG draws.
    pub diurnal_fraction: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            n_functions: 2_000,
            days: 14,
            train_days: 12,
            seed: 0xC0FFEE,
            silent_fraction: 0.02,
            unseen_fraction: 0.009,
            shift_fraction: 0.06,
            chain_prob: 0.55,
            burst_bias: 0.0,
            diurnal_fraction: 0.0,
        }
    }
}

impl SynthConfig {
    /// Total trace horizon in slots.
    #[must_use]
    pub fn horizon(&self) -> Slot {
        self.days * SLOTS_PER_DAY
    }

    /// End of the training window in slots.
    #[must_use]
    pub fn train_end(&self) -> Slot {
        self.train_days * SLOTS_PER_DAY
    }

    /// CI-sized variant of this config: at most 200 functions over a
    /// 7-day horizon with a 6-day training prefix (the same 6:1
    /// train/eval proportion as the paper's 12:2), preserving every
    /// behavioural knob. Used by `repro --quick` and the test matrix.
    #[must_use]
    pub fn quick(mut self) -> Self {
        self.n_functions = self.n_functions.min(200);
        self.days = self.days.min(7);
        self.train_days = self
            .train_days
            .min(6)
            .min(self.days.saturating_sub(1).max(1));
        self
    }
}

/// A generated trace together with its ground-truth function specs and
/// the training boundary it was generated around.
#[derive(Debug, Clone)]
pub struct SynthTrace {
    /// The invocation trace.
    pub trace: Trace,
    /// Per-function ground truth (archetypes, shifts, unseen flags),
    /// aligned with `trace` function ids.
    pub specs: Vec<FunctionSpec>,
    /// End of the generating config's training window, in slots. Unseen
    /// and shift behaviour is placed relative to this boundary, and the
    /// experiment runners fit on `[0, train_end)` and measure on
    /// `[train_end, n_slots)` — carrying it here makes the generator and
    /// the runners agree by construction instead of by convention.
    pub train_end: Slot,
}

/// Why an externally loaded trace cannot back an experiment. A CSV that
/// *parses* can still be unusable — empty, or too short to leave both a
/// training and a measurement window — and a pipeline fed real traces
/// wants those as errors, not panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExternalTraceError {
    /// The trace declares no functions at all (e.g. an empty or
    /// header-only CSV).
    EmptyPopulation,
    /// The horizon is too short for the scaled fallback boundary to
    /// leave a non-empty training *and* measurement window; supply an
    /// explicit boundary or a longer trace.
    HorizonTooShort {
        /// The trace's horizon in slots.
        n_slots: Slot,
    },
    /// An explicit training boundary falls outside `(0, n_slots)`.
    BoundaryOutOfRange {
        /// The requested boundary.
        train_end: Slot,
        /// The trace's horizon in slots.
        n_slots: Slot,
    },
}

impl std::fmt::Display for ExternalTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyPopulation => {
                write!(
                    f,
                    "external trace declares no functions (empty or header-only file?)"
                )
            }
            Self::HorizonTooShort { n_slots } => write!(
                f,
                "external trace horizon of {n_slots} slot(s) is too short to split into \
                 training and measurement windows; pass an explicit boundary or a longer trace"
            ),
            Self::BoundaryOutOfRange { train_end, n_slots } => write!(
                f,
                "training boundary {train_end} outside the trace horizon {n_slots} \
                 (it must leave both windows non-empty)"
            ),
        }
    }
}

impl std::error::Error for ExternalTraceError {}

impl SynthTrace {
    /// Wraps a trace that carries no generator metadata (e.g. one loaded
    /// from a real-trace CSV) with placeholder specs and the scaled
    /// [`fallback_train_end`] boundary.
    ///
    /// # Errors
    /// Returns [`ExternalTraceError`] when the trace is empty or its
    /// horizon cannot be split into non-empty training and measurement
    /// windows.
    pub fn try_from_external(trace: Trace) -> Result<Self, ExternalTraceError> {
        let train_end = fallback_train_end(trace.n_slots);
        if !(train_end > 0 && train_end < trace.n_slots) {
            // Distinguish "nothing there" from "too short to split".
            if trace.n_functions() == 0 {
                return Err(ExternalTraceError::EmptyPopulation);
            }
            return Err(ExternalTraceError::HorizonTooShort {
                n_slots: trace.n_slots,
            });
        }
        Self::try_from_external_with_boundary(trace, train_end)
    }

    /// As [`SynthTrace::try_from_external`], but with an explicit
    /// training boundary (e.g. from a flag accompanying the trace file).
    ///
    /// # Errors
    /// Returns [`ExternalTraceError`] when the trace is empty or
    /// `train_end` is outside `(0, trace.n_slots)`.
    pub fn try_from_external_with_boundary(
        trace: Trace,
        train_end: Slot,
    ) -> Result<Self, ExternalTraceError> {
        if trace.n_functions() == 0 {
            return Err(ExternalTraceError::EmptyPopulation);
        }
        if !(train_end > 0 && train_end < trace.n_slots) {
            return Err(ExternalTraceError::BoundaryOutOfRange {
                train_end,
                n_slots: trace.n_slots,
            });
        }
        Ok(Self::wrap_external(trace, train_end))
    }

    fn wrap_external(trace: Trace, train_end: Slot) -> Self {
        let specs = trace
            .metas
            .iter()
            .map(|m| FunctionSpec {
                meta: *m,
                segments: vec![Segment {
                    start: 0,
                    end: trace.n_slots,
                    archetype: Archetype::Silent,
                }],
                unseen: false,
            })
            .collect();
        Self {
            trace,
            specs,
            train_end,
        }
    }
}

/// Training cutoff for an externally loaded trace of `n_slots` with no
/// metadata of its own: the paper's 12-day prefix whenever that leaves a
/// non-empty metrics window, otherwise 6/7 of the horizon (the same 12:2
/// proportion, scaled down). Synthetic traces never need this — they
/// carry their generating config's boundary in [`SynthTrace::train_end`].
#[must_use]
pub fn fallback_train_end(n_slots: Slot) -> Slot {
    let twelve_days = 12 * SLOTS_PER_DAY;
    if n_slots > twelve_days {
        twelve_days
    } else {
        n_slots / 7 * 6
    }
}

/// Generates a synthetic trace.
///
/// # Panics
/// Panics if `train_days > days` or `n_functions == 0`.
#[must_use]
pub fn generate(config: &SynthConfig) -> SynthTrace {
    assert!(config.train_days <= config.days, "train window too long");
    assert!(config.n_functions > 0, "empty population");
    let horizon = config.horizon();
    let train_end = config.train_end();

    let mut rng = SmallRng::seed_from_u64(config.seed);
    let specs = population::build_population(config, &mut rng);

    // Pass 1: all non-chained functions, each from a per-function RNG so
    // that the output is independent of generation order.
    let mut series: Vec<SparseSeries> = vec![SparseSeries::new(); specs.len()];
    for (i, spec) in specs.iter().enumerate() {
        if spec.is_chained() {
            continue;
        }
        series[i] = generate_segments(spec, config.seed, i as u64);
    }

    // Pass 2: chained functions, reading their parent's finished series.
    for (i, spec) in specs.iter().enumerate() {
        if !spec.is_chained() {
            continue;
        }
        let chained =
            generate_chained_segments(spec, config.seed, i as u64, &|p| &series[p.index()]);
        series[i] = chained;
    }

    let metas = specs.iter().map(|s| s.meta).collect();
    SynthTrace {
        trace: Trace::new(horizon, metas, series),
        specs,
        train_end,
    }
}

/// Series of one non-chained function from its order-independent
/// per-function RNG. Shared by [`generate`] and the streaming producer
/// ([`stream::SynthStream`]) — both must consume RNG draws identically
/// for the bit-equality contract to hold.
fn generate_segments(spec: &FunctionSpec, seed: u64, index: u64) -> SparseSeries {
    let mut frng = SmallRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9));
    join_segments(
        spec.segments
            .iter()
            .map(|seg| archetype::generate(&seg.archetype, seg.start, seg.end, &mut frng)),
    )
}

/// Series of one chained function. `parent_of` resolves a parent's
/// finished series; parents are always non-chained members of the same
/// app with a smaller function index, so both the materialised
/// ([`generate`]) and the app-chunked streaming producer can satisfy the
/// lookup from what they have already generated.
fn generate_chained_segments<'a>(
    spec: &FunctionSpec,
    seed: u64,
    index: u64,
    parent_of: &dyn Fn(crate::model::FunctionId) -> &'a SparseSeries,
) -> SparseSeries {
    let mut frng = SmallRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9));
    join_segments(spec.segments.iter().map(|seg| match &seg.archetype {
        Archetype::Chained { parent, lag, prob } => archetype::generate_chained(
            parent_of(*parent),
            *lag,
            *prob,
            seg.start,
            seg.end,
            &mut frng,
        ),
        other => archetype::generate(other, seg.start, seg.end, &mut frng),
    }))
}

/// Joins a spec's segment series, in order. Every archetype keeps its
/// events inside `[seg.start, seg.end)` and a spec's segments ascend
/// without overlap, so the join is a concatenation; `push` asserts the
/// order.
///
/// The result is a fresh exact-size copy: appending leaves spare
/// capacity (a chained child grows by doubling), and a materialised
/// trace keeps every series for its whole life. Storing the appended
/// series itself, or shrinking it in place, changed how the allocator's
/// heap fragments across perfbench `serve-online`'s repeated set-ups and
/// raised its peak RSS from about 52 to 55–68 MiB.
fn join_segments(segments: impl Iterator<Item = SparseSeries>) -> SparseSeries {
    let mut series = SparseSeries::new();
    for segment in segments {
        if series.is_empty() {
            series = segment;
            continue;
        }
        for &(slot, count) in segment.events() {
            series.push(slot, count);
        }
    }
    series.clone()
}

/// Convenience: generates a small deterministic trace for tests/examples.
#[must_use]
pub fn small_test_trace(n_functions: usize, seed: u64) -> SynthTrace {
    generate(&SynthConfig {
        n_functions,
        seed,
        ..SynthConfig::default()
    })
}

/// Draws `k` distinct random elements from `0..n` (reservoir sampling);
/// used by the empirical-analysis figures for negative sampling.
pub fn sample_distinct<R: RngExt>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    let k = k.min(n);
    let mut reservoir: Vec<usize> = (0..k).collect();
    for i in k..n {
        let j = rng.random_range(0..=i);
        if j < k {
            reservoir[j] = i;
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TriggerType;
    use crate::series::Sequences;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig {
            n_functions: 200,
            ..SynthConfig::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.trace.series, b.trace.series);
        assert_eq!(a.trace.metas, b.trace.metas);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_test_trace(100, 1);
        let b = small_test_trace(100, 2);
        assert_ne!(a.trace.series, b.trace.series);
    }

    #[test]
    fn horizon_respected() {
        let out = small_test_trace(300, 3);
        let horizon = out.trace.n_slots;
        for s in &out.trace.series {
            if let Some(last) = s.last_slot() {
                assert!(last < horizon);
            }
        }
    }

    #[test]
    fn unseen_functions_silent_during_training() {
        let cfg = SynthConfig {
            n_functions: 3_000,
            unseen_fraction: 0.05,
            ..SynthConfig::default()
        };
        let out = generate(&cfg);
        let train_end = cfg.train_end();
        let mut n_unseen = 0;
        for (i, spec) in out.specs.iter().enumerate() {
            if spec.unseen {
                n_unseen += 1;
                assert!(
                    out.trace.series[i].events_in(0, train_end).is_empty(),
                    "unseen function {i} invoked during training"
                );
            }
        }
        assert!(n_unseen > 50);
    }

    #[test]
    fn heavy_tail_spans_orders_of_magnitude() {
        let out = small_test_trace(2_000, 11);
        let totals: Vec<u64> = out
            .trace
            .series
            .iter()
            .map(SparseSeries::total_invocations)
            .filter(|&t| t > 0)
            .collect();
        let max = *totals.iter().max().unwrap();
        let min_nonzero = *totals.iter().min().unwrap();
        // Fig. 3: counts span many orders of magnitude.
        assert!(
            max / min_nonzero.max(1) > 10_000,
            "max {max}, min {min_nonzero}"
        );
    }

    #[test]
    fn chained_functions_follow_parents() {
        let cfg = SynthConfig {
            n_functions: 3_000,
            shift_fraction: 0.0,
            ..SynthConfig::default()
        };
        let out = generate(&cfg);
        let mut checked = 0;
        for (i, spec) in out.specs.iter().enumerate() {
            if let Archetype::Chained { parent, lag, .. } = spec.primary_archetype() {
                let child = &out.trace.series[i];
                if child.is_empty() {
                    continue;
                }
                let parent_series = &out.trace.series[parent.index()];
                // Every child invocation must sit `lag` slots after some
                // parent invocation.
                for &(slot, _) in child.events() {
                    assert!(
                        parent_series.count_at(slot - lag) > 0,
                        "orphan child invocation at {slot}"
                    );
                }
                checked += 1;
            }
        }
        assert!(checked > 10, "only {checked} chained functions checked");
    }

    #[test]
    fn shifted_regular_changes_wt_distribution() {
        // Find a shifted regular function and verify its WT mode differs
        // across the shift point.
        let cfg = SynthConfig {
            n_functions: 4_000,
            shift_fraction: 0.5,
            silent_fraction: 0.0,
            unseen_fraction: 0.0,
            ..SynthConfig::default()
        };
        let out = generate(&cfg);
        let mut verified = 0;
        for (i, spec) in out.specs.iter().enumerate() {
            if spec.segments.len() != 2 {
                continue;
            }
            let (a, b) = (&spec.segments[0], &spec.segments[1]);
            if let (Archetype::Regular { period: p1 }, Archetype::Regular { period: p2 }) =
                (&a.archetype, &b.archetype)
            {
                if p1 == p2 {
                    continue;
                }
                let wt_a = Sequences::waiting_times(&out.trace.series[i], a.start, a.end);
                let wt_b = Sequences::waiting_times(&out.trace.series[i], b.start, b.end);
                if wt_a.len() < 4 || wt_b.len() < 4 {
                    continue;
                }
                let mode_a = spes_stats::top_modes(&wt_a, 1)[0].value;
                let mode_b = spes_stats::top_modes(&wt_b, 1)[0].value;
                assert_ne!(mode_a, mode_b, "function {i} shift not visible");
                verified += 1;
                if verified >= 5 {
                    break;
                }
            }
        }
        assert!(verified >= 1, "no shifted regular function verified");
    }

    #[test]
    fn trigger_mix_in_generated_trace() {
        let out = small_test_trace(20_000, 5);
        let timers = out
            .specs
            .iter()
            .filter(|s| s.meta.trigger == TriggerType::Timer)
            .count();
        let frac = timers as f64 / out.specs.len() as f64;
        assert!((0.24..=0.29).contains(&frac), "timer fraction {frac}");
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = SmallRng::seed_from_u64(1);
        let s = sample_distinct(100, 10, &mut rng);
        assert_eq!(s.len(), 10);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(s.iter().all(|&x| x < 100));
        // k > n clamps.
        assert_eq!(sample_distinct(3, 10, &mut rng).len(), 3);
    }

    #[test]
    fn trace_carries_its_config_boundary() {
        for (days, train_days) in [(14, 12), (10, 8), (7, 6), (5, 2)] {
            let cfg = SynthConfig {
                n_functions: 50,
                days,
                train_days,
                ..SynthConfig::default()
            };
            let out = generate(&cfg);
            assert_eq!(out.train_end, train_days * SLOTS_PER_DAY);
            assert_eq!(out.train_end, cfg.train_end());
        }
    }

    #[test]
    fn quick_variant_shrinks_but_keeps_knobs() {
        let q = SynthConfig {
            chain_prob: 0.9,
            diurnal_fraction: 0.3,
            ..SynthConfig::default()
        }
        .quick();
        assert_eq!(q.n_functions, 200);
        assert_eq!(q.days, 7);
        assert_eq!(q.train_days, 6);
        assert_eq!(q.chain_prob, 0.9);
        assert_eq!(q.diurnal_fraction, 0.3);
        // Already-small configs are left alone (modulo the boundary).
        let small = SynthConfig {
            n_functions: 60,
            days: 5,
            train_days: 4,
            ..SynthConfig::default()
        }
        .quick();
        assert_eq!(small.n_functions, 60);
        assert_eq!(small.days, 5);
        assert_eq!(small.train_days, 4);
    }

    #[test]
    fn fallback_boundary_scales_with_horizon() {
        assert_eq!(fallback_train_end(14 * SLOTS_PER_DAY), 12 * SLOTS_PER_DAY);
        assert_eq!(fallback_train_end(7 * SLOTS_PER_DAY), 6 * SLOTS_PER_DAY);
        // Sub-12-day horizons leave a non-empty metrics window.
        for days in 1..=12 {
            let n_slots = days * SLOTS_PER_DAY;
            let t = fallback_train_end(n_slots);
            assert!(t < n_slots, "{days} days: train {t} >= horizon {n_slots}");
        }
    }

    #[test]
    fn external_trace_gets_fallback_boundary() {
        let data = small_test_trace(40, 1);
        let n_slots = data.trace.n_slots;
        let wrapped = SynthTrace::try_from_external(data.trace).unwrap();
        assert_eq!(wrapped.train_end, fallback_train_end(n_slots));
        assert_eq!(wrapped.specs.len(), wrapped.trace.n_functions());
    }

    #[test]
    fn external_trace_rejects_bad_boundary() {
        let data = small_test_trace(10, 2);
        let n_slots = data.trace.n_slots;
        let err = SynthTrace::try_from_external_with_boundary(data.trace, n_slots).unwrap_err();
        assert!(err.to_string().contains("training boundary"), "{err}");
    }

    #[test]
    fn external_trace_errors_are_typed() {
        use crate::model::{AppId, FunctionMeta, SparseSeries, Trace, TriggerType, UserId};

        // Empty (header-only CSV): no functions to experiment on.
        let empty = Trace::new(0, Vec::new(), Vec::new());
        assert_eq!(
            SynthTrace::try_from_external(empty).unwrap_err(),
            ExternalTraceError::EmptyPopulation
        );

        // A trace so short the scaled fallback boundary cannot leave
        // both windows non-empty (a truncated real-trace export).
        let meta = FunctionMeta {
            app: AppId(0),
            user: UserId(0),
            trigger: TriggerType::Http,
        };
        let tiny = Trace::new(
            3,
            vec![meta; 2],
            vec![SparseSeries::from_pairs(vec![(0, 1)]); 2],
        );
        assert_eq!(
            SynthTrace::try_from_external(tiny).unwrap_err(),
            ExternalTraceError::HorizonTooShort { n_slots: 3 }
        );

        // Explicit boundaries at either edge of the horizon.
        for bad in [0, 100] {
            let data = Trace::new(
                100,
                vec![meta; 2],
                vec![SparseSeries::from_pairs(vec![(0, 1)]); 2],
            );
            let err = SynthTrace::try_from_external_with_boundary(data, bad).unwrap_err();
            assert_eq!(
                err,
                ExternalTraceError::BoundaryOutOfRange {
                    train_end: bad,
                    n_slots: 100
                }
            );
            assert!(err.to_string().contains("boundary"), "{err}");
        }

        // The happy path is deterministic in its input.
        let a = SynthTrace::try_from_external(small_test_trace(40, 2).trace).unwrap();
        let b = SynthTrace::try_from_external(small_test_trace(40, 2).trace).unwrap();
        assert_eq!(a.train_end, b.train_end);
        assert_eq!(a.trace.n_slots, b.trace.n_slots);
    }

    #[test]
    #[should_panic(expected = "train window too long")]
    fn rejects_bad_train_window() {
        let _ = generate(&SynthConfig {
            days: 2,
            train_days: 5,
            ..SynthConfig::default()
        });
    }
}
