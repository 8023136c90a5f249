//! Population construction: triggers, applications, users, and archetype
//! assignment, reproducing the published statistics of the Azure trace.
//!
//! * Trigger mix follows Fig. 5 of the paper (http 41.19%, timer 26.64%,
//!   queue 14.40%, orchestration 7.76%, others 2.72%, combination 2.60%,
//!   event 2.52%, storage 2.19%).
//! * The Azure trace has 83,137 functions over 24,964 apps over 15,097
//!   users, i.e. ~3.33 functions per app and ~1.65 apps per user; app and
//!   user sizes are drawn geometrically with those means.
//! * Archetypes are assigned conditionally on the trigger so that the
//!   Section III statistics emerge: most timer functions are
//!   (quasi-)periodic, HTTP skews Poisson/bursty, orchestration functions
//!   chain off a same-app parent.

use crate::model::{AppId, FunctionId, FunctionMeta, Slot, TriggerType, UserId};
use crate::synth::archetype::Archetype;
use crate::synth::SynthConfig;
use rand::RngExt;
use rand_distr::{Distribution, LogNormal};

/// One contiguous behavioural segment of a synthetic function.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// First slot of the segment (inclusive).
    pub start: Slot,
    /// End of the segment (exclusive).
    pub end: Slot,
    /// Behaviour within the segment.
    pub archetype: Archetype,
}

/// Ground-truth specification of one synthetic function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    /// Static metadata (app, user, trigger).
    pub meta: FunctionMeta,
    /// Behavioural segments in increasing slot order. More than one
    /// segment means the function experiences a concept shift (Fig. 4).
    pub segments: Vec<Segment>,
    /// Whether the function only starts invoking after the training window
    /// (an "unseen" function, 743/83,137 in the Azure trace).
    pub unseen: bool,
}

impl FunctionSpec {
    /// The archetype of the first segment (the dominant ground truth).
    #[must_use]
    pub fn primary_archetype(&self) -> &Archetype {
        &self.segments[0].archetype
    }

    /// Whether any segment is chained off a parent function.
    #[must_use]
    pub fn is_chained(&self) -> bool {
        self.segments.iter().any(|s| s.archetype.is_chained())
    }
}

/// Fig. 5 trigger-mix weights (fractions of the function population).
pub const TRIGGER_MIX: [(TriggerType, f64); 8] = [
    (TriggerType::Http, 0.4119),
    (TriggerType::Timer, 0.2664),
    (TriggerType::Queue, 0.1440),
    (TriggerType::Orchestration, 0.0776),
    (TriggerType::Others, 0.0272),
    (TriggerType::Combination, 0.0260),
    (TriggerType::Event, 0.0252),
    (TriggerType::Storage, 0.0219),
];

/// Draws a trigger type according to [`TRIGGER_MIX`].
pub fn sample_trigger<R: RngExt>(rng: &mut R) -> TriggerType {
    let x: f64 = rng.random();
    let mut acc = 0.0;
    for &(t, w) in &TRIGGER_MIX {
        acc += w;
        if x < acc {
            return t;
        }
    }
    TriggerType::Storage
}

/// Timer periods observed in practice (minutes), weighted towards short
/// polling intervals but including hourly and daily schedules.
const TIMER_PERIODS: [(u32, f64); 9] = [
    (5, 0.06),
    (10, 0.08),
    (15, 0.10),
    (30, 0.14),
    (60, 0.18),
    (120, 0.14),
    (360, 0.12),
    (720, 0.09),
    (1440, 0.09),
];

fn sample_timer_period<R: RngExt>(rng: &mut R) -> u32 {
    let x: f64 = rng.random();
    let mut acc = 0.0;
    for &(p, w) in &TIMER_PERIODS {
        acc += w;
        if x < acc {
            return p;
        }
    }
    1440
}

/// Draws a heavy-tailed per-slot rate for dense functions. The log-normal
/// body spreads total invocation counts over several orders of magnitude,
/// reproducing the shape of Fig. 3.
fn sample_dense_rate<R: RngExt>(rng: &mut R) -> f64 {
    #[expect(clippy::expect_used, reason = "constant, valid parameters")]
    let dist = LogNormal::new(-0.5f64, 1.1).expect("valid lognormal");
    // The floor keeps the P90 waiting time within the "dense" definition;
    // sparser Poisson streams belong to the pulsed/rare archetypes.
    dist.sample(rng).clamp(0.55, 60.0)
}

/// Draws the archetype for a function of the given trigger type.
///
/// `same_app_parent` is a non-chained function of the same application, if
/// one exists; orchestration functions chain off it.
pub fn sample_archetype<R: RngExt>(
    trigger: TriggerType,
    same_app_parent: Option<FunctionId>,
    rng: &mut R,
) -> Archetype {
    let x: f64 = rng.random();
    match trigger {
        TriggerType::Timer => {
            if x < 0.04 {
                Archetype::AlwaysWarm
            } else if x < 0.34 {
                Archetype::Regular {
                    period: sample_timer_period(rng),
                }
            } else if x < 0.48 {
                let base = sample_timer_period(rng).max(3);
                Archetype::ApproRegular {
                    periods: vec![base, base + 1, base + 2],
                }
            } else if x < 0.92 {
                rare(rng)
            } else {
                Archetype::Pulsed {
                    mean_gap: 200.0 + rng.random::<f64>() * 800.0,
                }
            }
        }
        TriggerType::Http => {
            if x < 0.02 {
                Archetype::AlwaysWarm
            } else if x < 0.09 {
                Archetype::Dense {
                    rate: sample_dense_rate(rng),
                }
            } else if x < 0.26 {
                successive(rng)
            } else if x < 0.34 {
                Archetype::Pulsed {
                    mean_gap: 100.0 + rng.random::<f64>() * 1200.0,
                }
            } else {
                rare(rng)
            }
        }
        TriggerType::Queue => {
            if x < 0.10 {
                Archetype::Dense {
                    rate: sample_dense_rate(rng),
                }
            } else if x < 0.30 {
                successive(rng)
            } else if x < 0.36 {
                Archetype::Pulsed {
                    mean_gap: 150.0 + rng.random::<f64>() * 600.0,
                }
            } else {
                rare(rng)
            }
        }
        TriggerType::Orchestration => match same_app_parent {
            Some(parent) if x < 0.8 => Archetype::Chained {
                parent,
                lag: 1 + rng.random_range(0..3),
                prob: 0.85 + rng.random::<f64>() * 0.14,
            },
            _ => Archetype::Dense {
                rate: sample_dense_rate(rng).min(2.0),
            },
        },
        TriggerType::Event => {
            if x < 0.20 {
                successive(rng)
            } else if x < 0.30 {
                Archetype::Pulsed {
                    mean_gap: 200.0 + rng.random::<f64>() * 1000.0,
                }
            } else {
                rare(rng)
            }
        }
        TriggerType::Storage => {
            if x < 0.20 {
                successive(rng)
            } else if x < 0.30 {
                Archetype::Pulsed {
                    mean_gap: 200.0 + rng.random::<f64>() * 1000.0,
                }
            } else {
                rare(rng)
            }
        }
        TriggerType::Others => {
            if x < 0.05 {
                Archetype::Dense {
                    rate: sample_dense_rate(rng).min(5.0),
                }
            } else if x < 0.20 {
                Archetype::Regular {
                    period: sample_timer_period(rng),
                }
            } else if x < 0.30 {
                Archetype::Pulsed {
                    mean_gap: 100.0 + rng.random::<f64>() * 900.0,
                }
            } else {
                rare(rng)
            }
        }
        TriggerType::Combination => {
            if x < 0.08 {
                Archetype::Dense {
                    rate: sample_dense_rate(rng),
                }
            } else if x < 0.35 {
                let base = sample_timer_period(rng).max(3);
                Archetype::ApproRegular {
                    periods: vec![base, base + 1, base + 2],
                }
            } else if x < 0.50 {
                Archetype::Pulsed {
                    mean_gap: 100.0 + rng.random::<f64>() * 700.0,
                }
            } else {
                rare(rng)
            }
        }
    }
}

fn successive<R: RngExt>(rng: &mut R) -> Archetype {
    Archetype::Successive {
        mean_gap: 200.0 + rng.random::<f64>() * 1500.0,
        burst_len: 3 + rng.random_range(0..8),
        burst_rate: 1.0 + rng.random::<f64>() * 4.0,
    }
}

/// The infrequent-function mixture. Infrequent Azure functions fall into
/// recognisably different sub-populations, and reproducing that split is
/// what separates the policies at the 75th CSR percentile:
/// * quantized-periodic (batch jobs, long timers) — a recurring gap,
///   predictable by SPES's WT values at any scale and by histogram
///   policies only within their range;
/// * two-mode schedules (e.g. a morning and an evening job);
/// * dispersed human-driven stragglers — exponential-ish gaps nobody
///   predicts well (SPES's "pulsed" tolerance band);
/// * truly rare functions with a handful of day-scale invocations.
fn rare<R: RngExt>(rng: &mut R) -> Archetype {
    let x: f64 = rng.random();
    if x < 0.58 {
        // Quantized-periodic, spanning the horizon; gaps from 30 minutes
        // to ~43 hours (log-uniform), so a share exceeds every histogram
        // range.
        let gap = (30.0 * (2600.0f64 / 30.0).powf(rng.random::<f64>())) as u32;
        Archetype::Rare {
            gap,
            jitter: rng.random_range(0..=2),
            count: u32::MAX,
        }
    } else if x < 0.72 {
        // Two-mode schedule: alternating short/long recurring gaps.
        let base = (30.0 * (900.0f64 / 30.0).powf(rng.random::<f64>())) as u32;
        let long = base * (2 + rng.random_range(0..3));
        Archetype::ApproRegular {
            periods: vec![base, base + 1, long],
        }
    } else if x < 0.88 {
        // Dispersed stragglers: exponential gaps, 1-2 slot flurries.
        let mean_gap = (60.0 * (1500.0f64 / 60.0).powf(rng.random::<f64>())) as u32;
        Archetype::Pulsed {
            mean_gap: f64::from(mean_gap),
        }
    } else {
        // Truly rare: a handful of invocations with day-scale gaps.
        let gap = 400 + rng.random_range(0..4000);
        Archetype::Rare {
            gap,
            jitter: rng.random_range(0..=2),
            count: 2 + rng.random_range(0..12),
        }
    }
}

/// Mutates an archetype to model a concept shift (Fig. 4): periodic
/// functions change period, dense functions change rate, bursty functions
/// change density, rare functions change cadence.
pub fn shifted_archetype<R: RngExt>(original: &Archetype, rng: &mut R) -> Archetype {
    match original {
        Archetype::AlwaysWarm => Archetype::Dense {
            rate: sample_dense_rate(rng),
        },
        Archetype::Regular { period } => {
            let factor = if rng.random_bool(0.5) { 2 } else { 3 };
            let new_period = if rng.random_bool(0.5) {
                period.saturating_mul(factor).min(1440)
            } else {
                (period / factor).max(2)
            };
            Archetype::Regular { period: new_period }
        }
        Archetype::ApproRegular { periods } => {
            let base = periods[0].saturating_mul(2).clamp(3, 1440);
            Archetype::ApproRegular {
                periods: vec![base, base + 1, base + 2],
            }
        }
        Archetype::Dense { rate } => {
            let factor = 2.0 + rng.random::<f64>() * 4.0;
            let new_rate = if rng.random_bool(0.5) {
                (rate * factor).min(80.0)
            } else {
                (rate / factor).max(0.1)
            };
            Archetype::Dense { rate: new_rate }
        }
        Archetype::Successive {
            mean_gap,
            burst_len,
            burst_rate,
        } => Archetype::Successive {
            mean_gap: mean_gap * (0.3 + rng.random::<f64>()),
            burst_len: (*burst_len + 2).min(15),
            burst_rate: *burst_rate,
        },
        Archetype::Pulsed { mean_gap } => {
            if rng.random_bool(0.3) {
                Archetype::Dense {
                    rate: sample_dense_rate(rng).min(1.0),
                }
            } else {
                Archetype::Pulsed {
                    mean_gap: mean_gap * (0.25 + rng.random::<f64>() * 1.5),
                }
            }
        }
        Archetype::Chained { parent, lag, prob } => Archetype::Chained {
            parent: *parent,
            lag: lag + 1,
            prob: *prob * 0.8,
        },
        Archetype::Diurnal {
            start_min,
            active_mins,
            rate,
        } => Archetype::Diurnal {
            // The active window migrates to the opposite half of the day
            // (e.g. a workload moving between timezones).
            start_min: (start_min + 720) % 1440,
            active_mins: *active_mins,
            rate: rate * (0.5 + rng.random::<f64>()),
        },
        Archetype::Rare { gap, jitter, count } => Archetype::Rare {
            gap: (gap / 2).max(100),
            jitter: *jitter,
            count: count.saturating_mul(2),
        },
        Archetype::Silent => Archetype::Rare {
            gap: 1000,
            jitter: 1,
            count: 3,
        },
    }
}

/// Builds the app/user/trigger skeleton and archetype assignment for
/// `config.n_functions` functions, honouring every workload knob of the
/// config (fractions, chaining strength, burst bias, diurnal share).
/// Unseen functions start after `config.train_end()`.
///
/// The scenario knobs that default to "off" (`burst_bias`,
/// `diurnal_fraction`) consume RNG draws only when enabled, so the
/// default configuration generates bit-identical traces with or without
/// them.
pub fn build_population<R: RngExt>(config: &SynthConfig, rng: &mut R) -> Vec<FunctionSpec> {
    let n_functions = config.n_functions;
    let horizon = config.horizon();
    let train_end = config.train_end();
    let mut specs: Vec<FunctionSpec> = Vec::with_capacity(n_functions);
    let mut app_id = 0u32;
    let mut user_id = 0u32;
    let mut remaining_in_app = 0u32;
    // Activity clusters by application in the Azure trace: an app whose
    // functions are rarely needed is rarely needed as a whole. Without
    // tiering, every synthetic rare function would share an app with a
    // busy sibling, handing application-granularity baselines a signal
    // that no real workload provides.
    let mut app_tier = AppTier::Moderate;
    // Non-chained members of the current app, candidates for chaining.
    let mut app_parents: Vec<FunctionId> = Vec::new();

    for i in 0..n_functions {
        if remaining_in_app == 0 {
            // New app. Following the Azure characterisation (Shahrad et
            // al.), over half the applications hold a single function,
            // with a heavy tail of larger ones; the mixture keeps the
            // population mean at ~3.33 functions per app.
            app_id += 1;
            app_parents.clear();
            app_tier = sample_app_tier(rng);
            // Low-activity apps skew strongly single-function (an
            // infrequent standalone endpoint); production apps carry the
            // multi-function tail.
            let single_prob = if app_tier == AppTier::Rare {
                0.80
            } else {
                0.44
            };
            remaining_in_app = if rng.random::<f64>() < single_prob {
                1
            } else {
                2 + sample_geometric(rng, 0.19).min(23)
            };
            // ~60% of apps start a new user => ~1.65 apps per user.
            if rng.random::<f64>() < 0.606 || user_id == 0 {
                user_id += 1;
            }
        }
        remaining_in_app -= 1;

        let trigger = sample_trigger(rng);
        let meta = FunctionMeta {
            app: AppId(app_id - 1),
            user: UserId(user_id - 1),
            trigger,
        };

        let unseen = rng.random::<f64>() < config.unseen_fraction;
        let silent = !unseen && rng.random::<f64>() < config.silent_fraction;

        let start = if unseen {
            // Unseen functions first appear in the simulation window.
            train_end + rng.random_range(0..(horizon - train_end).max(1))
        } else {
            0
        };

        let parent = app_parents.last().copied().filter(|p| p.0 != i as u32);
        let archetype = if silent {
            Archetype::Silent
        } else if config.diurnal_fraction > 0.0 && rng.random::<f64>() < config.diurnal_fraction {
            sample_diurnal(rng)
        } else {
            match app_tier {
                AppTier::Rare => sample_rare_app_archetype(parent, rng),
                AppTier::Busy => busy_tiered(sample_archetype(trigger, parent, rng), rng),
                AppTier::Moderate => match parent {
                    // Intra-app workflows: multi-function app members fire
                    // off a sibling within a couple of minutes (function
                    // chaining / fan-out, Section III-B2), which is what
                    // makes same-app co-occurrence ~4.6x the background
                    // level. The share is a scenario knob.
                    Some(parent_id) if rng.random::<f64>() < config.chain_prob => {
                        Archetype::Chained {
                            parent: parent_id,
                            // Most chains complete within the same minute
                            // (lag 0), matching the sub-minute workflow
                            // hops behind the paper's same-slot
                            // co-occurrence.
                            lag: if rng.random_bool(0.8) {
                                0
                            } else {
                                rng.random_range(1..=2)
                            },
                            prob: 0.8 + rng.random::<f64>() * 0.19,
                        }
                    }
                    _ => sample_archetype(trigger, parent, rng),
                },
            }
        };
        // Burst bias: scenario-controlled conversion of low-activity
        // draws into temporal-locality bursts (Fig. 6 pushed to the
        // extreme); off by default.
        let archetype = if config.burst_bias > 0.0
            && !silent
            && !archetype.is_chained()
            && rng.random::<f64>() < config.burst_bias
        {
            burstified(archetype, rng)
        } else {
            archetype
        };

        // Workflow stages usually share the trigger class of their
        // upstream function (Section III-B2: same-trigger candidates
        // correlate markedly more).
        let meta = if let Archetype::Chained { parent, .. } = &archetype {
            if rng.random::<f64>() < 0.7 {
                FunctionMeta {
                    trigger: specs[parent.index()].meta.trigger,
                    ..meta
                }
            } else {
                meta
            }
        } else {
            meta
        };

        if !archetype.is_chained() && !matches!(archetype, Archetype::Silent) {
            app_parents.push(FunctionId(i as u32));
        }

        let mut segments = Vec::with_capacity(2);
        let shifts = !silent && !unseen && rng.random::<f64>() < config.shift_fraction;
        if shifts && horizon > 4 {
            // Shift point in the middle 30-90% of the horizon, so both
            // behaviours are observable.
            let lo = (horizon as f64 * 0.3) as Slot;
            let hi = (horizon as f64 * 0.9) as Slot;
            let shift_at = lo + rng.random_range(0..(hi - lo).max(1));
            let second = shifted_archetype(&archetype, rng);
            segments.push(Segment {
                start,
                end: shift_at,
                archetype,
            });
            segments.push(Segment {
                start: shift_at,
                end: horizon,
                archetype: second,
            });
        } else {
            segments.push(Segment {
                start,
                end: horizon,
                archetype,
            });
        }

        specs.push(FunctionSpec {
            meta,
            segments,
            unseen,
        });
    }
    specs
}

/// Application activity tier: members of an app share a workload
/// character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AppTier {
    /// Continuously busy services: no rare/pulsed members.
    Busy,
    /// Mixed activity (the default trigger-conditioned sampling).
    Moderate,
    /// Low-activity apps: only rare/pulsed/chained members.
    Rare,
}

fn sample_app_tier<R: RngExt>(rng: &mut R) -> AppTier {
    let x: f64 = rng.random();
    if x < 0.15 {
        AppTier::Busy
    } else if x < 0.70 {
        AppTier::Moderate
    } else {
        AppTier::Rare
    }
}

/// Draws a diurnal archetype: a 6-12 hour daily active window whose
/// phase is uniform over the day (workloads serve users in every
/// timezone), with a moderate Poisson rate. The defining property is the
/// recurring 12-18 hour silent gap, not where it falls.
fn sample_diurnal<R: RngExt>(rng: &mut R) -> Archetype {
    Archetype::Diurnal {
        start_min: rng.random_range(0..1440),
        active_mins: 360 + rng.random_range(0..=360),
        rate: 0.1 + rng.random::<f64>() * 1.4,
    }
}

/// Burst-bias post-processing: spaced-out draws become bursty
/// temporal-locality patterns; already-active ones are left alone.
fn burstified<R: RngExt>(archetype: Archetype, rng: &mut R) -> Archetype {
    match archetype {
        Archetype::Rare { .. } | Archetype::Regular { .. } | Archetype::ApproRegular { .. } => {
            if rng.random_bool(0.6) {
                successive(rng)
            } else {
                Archetype::Pulsed {
                    mean_gap: 100.0 + rng.random::<f64>() * 800.0,
                }
            }
        }
        other => other,
    }
}

/// Busy-tier post-processing: low-activity draws are upgraded to an
/// active pattern of the same flavour.
fn busy_tiered<R: RngExt>(archetype: Archetype, rng: &mut R) -> Archetype {
    match archetype {
        Archetype::Rare { .. } => Archetype::Regular {
            period: sample_timer_period(rng).min(120),
        },
        Archetype::Pulsed { .. } => Archetype::Regular {
            period: sample_timer_period(rng).min(60),
        },
        other => other,
    }
}

/// Archetype for members of low-activity applications: mostly rare, some
/// pulsed, and an occasional chain off a (rare) sibling so that the
/// "correlated" strategy still has offline material.
fn sample_rare_app_archetype<R: RngExt>(
    same_app_parent: Option<FunctionId>,
    rng: &mut R,
) -> Archetype {
    let x: f64 = rng.random();
    match same_app_parent {
        Some(parent) if x < 0.30 => Archetype::Chained {
            parent,
            lag: if rng.random_bool(0.8) {
                0
            } else {
                rng.random_range(1..=3)
            },
            prob: 0.85 + rng.random::<f64>() * 0.14,
        },
        _ if x < 0.75 => rare(rng),
        _ => Archetype::Pulsed {
            mean_gap: 300.0 + rng.random::<f64>() * 1500.0,
        },
    }
}

/// Geometric sample with success probability `p` (number of failures
/// before the first success).
fn sample_geometric<R: RngExt>(rng: &mut R, p: f64) -> u32 {
    let u: f64 = rng.random();
    if p >= 1.0 {
        return 0;
    }
    (u.ln() / (1.0 - p).ln()).floor() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn trigger_mix_sums_to_one() {
        let total: f64 = TRIGGER_MIX.iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-3, "total = {total}");
    }

    #[test]
    fn trigger_sampling_matches_mix() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts: HashMap<TriggerType, usize> = HashMap::new();
        let n = 100_000;
        for _ in 0..n {
            *counts.entry(sample_trigger(&mut rng)).or_insert(0) += 1;
        }
        for &(t, w) in &TRIGGER_MIX {
            let observed = counts.get(&t).copied().unwrap_or(0) as f64 / n as f64;
            assert!(
                (observed - w).abs() < 0.01,
                "{t}: observed {observed}, expected {w}"
            );
        }
    }

    /// A default-shaped config (14-day horizon, 12-day training window)
    /// with the given population size and fractions.
    fn cfg(n: usize, silent: f64, unseen: f64, shift: f64) -> SynthConfig {
        SynthConfig {
            n_functions: n,
            silent_fraction: silent,
            unseen_fraction: unseen,
            shift_fraction: shift,
            ..SynthConfig::default()
        }
    }

    #[test]
    fn population_structure_ratios() {
        let mut rng = SmallRng::seed_from_u64(2);
        let specs = build_population(&cfg(20_000, 0.02, 0.01, 0.05), &mut rng);
        assert_eq!(specs.len(), 20_000);

        let apps: std::collections::HashSet<_> = specs.iter().map(|s| s.meta.app).collect();
        let users: std::collections::HashSet<_> = specs.iter().map(|s| s.meta.user).collect();
        let funcs_per_app = specs.len() as f64 / apps.len() as f64;
        let apps_per_user = apps.len() as f64 / users.len() as f64;
        // Azure ratios: ~3.33 functions/app, ~1.65 apps/user.
        assert!(
            (2.6..=4.2).contains(&funcs_per_app),
            "funcs/app = {funcs_per_app}"
        );
        assert!(
            (1.3..=2.1).contains(&apps_per_user),
            "apps/user = {apps_per_user}"
        );
    }

    #[test]
    fn unseen_functions_start_after_train_end() {
        let mut rng = SmallRng::seed_from_u64(3);
        let train_end = 17_280;
        let specs = build_population(&cfg(5_000, 0.0, 0.05, 0.0), &mut rng);
        let unseen: Vec<_> = specs.iter().filter(|s| s.unseen).collect();
        assert!(!unseen.is_empty());
        for s in unseen {
            assert!(s.segments[0].start >= train_end);
        }
    }

    #[test]
    fn shifted_functions_have_two_segments() {
        let mut rng = SmallRng::seed_from_u64(4);
        let specs = build_population(&cfg(5_000, 0.0, 0.0, 0.3), &mut rng);
        let shifted = specs.iter().filter(|s| s.segments.len() == 2).count();
        assert!(
            (0.2..=0.4).contains(&(shifted as f64 / specs.len() as f64)),
            "shifted fraction = {}",
            shifted as f64 / specs.len() as f64
        );
        for s in specs.iter().filter(|s| s.segments.len() == 2) {
            assert_eq!(s.segments[0].end, s.segments[1].start);
            assert_eq!(s.segments[1].end, 20_160);
        }
    }

    #[test]
    fn chained_parents_are_same_app_and_earlier() {
        let mut rng = SmallRng::seed_from_u64(5);
        let specs = build_population(&cfg(10_000, 0.0, 0.0, 0.0), &mut rng);
        let mut found = 0;
        for (i, s) in specs.iter().enumerate() {
            if let Archetype::Chained { parent, .. } = s.primary_archetype() {
                found += 1;
                assert!(parent.index() < i, "parent not earlier");
                assert_eq!(specs[parent.index()].meta.app, s.meta.app);
                assert!(!specs[parent.index()].primary_archetype().is_chained());
            }
        }
        assert!(found > 50, "only {found} chained functions");
    }

    #[test]
    fn timer_functions_skew_periodic() {
        let mut rng = SmallRng::seed_from_u64(6);
        let specs = build_population(&cfg(20_000, 0.0, 0.0, 0.0), &mut rng);
        let timers: Vec<_> = specs
            .iter()
            .filter(|s| s.meta.trigger == TriggerType::Timer)
            .collect();
        let periodic = timers
            .iter()
            .filter(|s| {
                // Quasi-periodic behaviour: strict/approximate periods and
                // the quantized infrequent timers (recurring gap with
                // small jitter) all pass the Section III-B1 KS test.
                matches!(
                    s.primary_archetype(),
                    Archetype::Regular { .. }
                        | Archetype::ApproRegular { .. }
                        | Archetype::Rare {
                            jitter: 0..=2,
                            count: u32::MAX,
                            ..
                        }
                )
            })
            .count();
        let frac = periodic as f64 / timers.len() as f64;
        // Paper: 68.12% of timer functions are (quasi-)periodic.
        assert!(
            (0.50..=0.85).contains(&frac),
            "periodic timer fraction {frac}"
        );
    }

    fn primary_label_counts(specs: &[FunctionSpec]) -> HashMap<&'static str, usize> {
        let mut counts = HashMap::new();
        for s in specs {
            *counts.entry(s.primary_archetype().label()).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn chain_prob_knob_scales_chained_share() {
        let mut rng = SmallRng::seed_from_u64(9);
        let weak = build_population(
            &SynthConfig {
                chain_prob: 0.1,
                ..cfg(10_000, 0.0, 0.0, 0.0)
            },
            &mut rng,
        );
        let mut rng = SmallRng::seed_from_u64(9);
        let strong = build_population(
            &SynthConfig {
                chain_prob: 0.9,
                ..cfg(10_000, 0.0, 0.0, 0.0)
            },
            &mut rng,
        );
        let chained = |specs: &[FunctionSpec]| specs.iter().filter(|s| s.is_chained()).count();
        assert!(
            chained(&strong) > 2 * chained(&weak),
            "strong {} vs weak {}",
            chained(&strong),
            chained(&weak)
        );
    }

    #[test]
    fn diurnal_fraction_produces_diurnal_functions() {
        let mut rng = SmallRng::seed_from_u64(10);
        let specs = build_population(
            &SynthConfig {
                diurnal_fraction: 0.4,
                ..cfg(5_000, 0.0, 0.0, 0.0)
            },
            &mut rng,
        );
        let counts = primary_label_counts(&specs);
        let diurnal = counts.get("diurnal").copied().unwrap_or(0);
        let frac = diurnal as f64 / specs.len() as f64;
        assert!((0.3..=0.5).contains(&frac), "diurnal fraction {frac}");
    }

    #[test]
    fn burst_bias_grows_bursty_share() {
        let base_counts = {
            let mut rng = SmallRng::seed_from_u64(11);
            primary_label_counts(&build_population(&cfg(10_000, 0.0, 0.0, 0.0), &mut rng))
        };
        let biased_counts = {
            let mut rng = SmallRng::seed_from_u64(11);
            primary_label_counts(&build_population(
                &SynthConfig {
                    burst_bias: 0.6,
                    ..cfg(10_000, 0.0, 0.0, 0.0)
                },
                &mut rng,
            ))
        };
        let bursty = |counts: &HashMap<&str, usize>| {
            counts.get("successive").copied().unwrap_or(0)
                + counts.get("pulsed").copied().unwrap_or(0)
        };
        assert!(
            bursty(&biased_counts) > bursty(&base_counts) * 3 / 2,
            "biased {} vs base {}",
            bursty(&biased_counts),
            bursty(&base_counts)
        );
    }

    #[test]
    fn geometric_mean_close_to_expectation() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p: f64 = 0.3;
        let n = 50_000;
        let total: u64 = (0..n)
            .map(|_| u64::from(sample_geometric(&mut rng, p)))
            .sum();
        let mean = total as f64 / n as f64;
        let expected = (1.0 - p) / p;
        assert!((mean - expected).abs() < 0.1, "mean {mean} vs {expected}");
    }

    #[test]
    fn shifted_archetype_changes_behaviour() {
        let mut rng = SmallRng::seed_from_u64(8);
        let reg = Archetype::Regular { period: 30 };
        let shifted = shifted_archetype(&reg, &mut rng);
        assert_ne!(reg, shifted);
        if let Archetype::Regular { period } = shifted {
            assert!(period == 60 || period == 90 || period == 15 || period == 10);
        } else {
            panic!("regular should shift to regular");
        }
    }
}
