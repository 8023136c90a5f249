//! Adversarial scenario search: seeded random walks + hill-climbing over
//! the synthetic-workload knobs, hunting configurations where SPES
//! underperforms.
//!
//! The seed-57 chain-heavy adjusting inversion was found by accident;
//! this module industrialises that kind of discovery (ROADMAP direction
//! 5). A [`run_fuzz`] invocation runs `walks` independent hill-climbing
//! walks over the [`KnobPoint`] space (`chain_prob`, `burst_bias`,
//! `diurnal_fraction`, `unseen_fraction`, `shift_fraction`,
//! `n_functions`). Every visited point is scored through the same
//! [`fold_matrix`] inner loop the regression matrix uses:
//!
//! * **regret** — full-SPES Q3-CSR minus the clairvoyant oracle's
//!   (the walk's climbing objective: workloads SPES handles badly), and
//! * **inversion** — full-SPES Q3-CSR minus the `w/o Adjusting`
//!   ablation's (the Section IV-C1 ordering violated: adjusting hurt).
//!
//! Any point whose inversion exceeds the threshold is a **finding**; a
//! greedy knob-minimiser then shrinks it toward the paper-default
//! baseline while the inversion persists, so what gets reported (and
//! pinned as a regression scenario) is a minimal configuration, not a
//! random corner of the space. Walk 0 always starts at the chain-heavy
//! preset — the seed-57 neighbourhood — so every run re-audits the
//! region of the original bug.
//!
//! Everything is deterministic for a fixed master seed: the walks use a
//! seeded [`SmallRng`], the evaluations use fixed workload seeds, and
//! the report contains no timestamps, so two runs with the same flags
//! produce byte-identical JSON.

use crate::matrix::fold_matrix;
use crate::policies;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use spes_core::SpesConfig;
use spes_trace::{synth, SynthConfig};

/// The generator knobs the fuzzer searches over. A point is a complete
/// behavioural description of a synthetic workload; the workload seed
/// and the horizon are held by [`FuzzConfig`], not the point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KnobPoint {
    /// Intra-app chaining probability (paper default 0.55).
    pub chain_prob: f64,
    /// Temporal-locality burst conversion probability (default 0.0).
    pub burst_bias: f64,
    /// Fraction of functions with a day-shaped load (default 0.0).
    pub diurnal_fraction: f64,
    /// Fraction of functions first seen after training (default 0.009).
    pub unseen_fraction: f64,
    /// Fraction of functions with a concept shift (default 0.06).
    pub shift_fraction: f64,
    /// Population size of the generated trace.
    pub n_functions: usize,
}

/// Inclusive knob bounds the walks stay inside. Kept in one place so the
/// minimiser and the mutator agree about the legal space.
const CHAIN_PROB_MAX: f64 = 0.99;
const BURST_BIAS_MAX: f64 = 0.9;
const DIURNAL_MAX: f64 = 0.9;
const UNSEEN_MAX: f64 = 0.3;
const SHIFT_MAX: f64 = 0.5;
const N_FUNCTIONS_MIN: usize = 40;
const N_FUNCTIONS_MAX: usize = 400;

impl KnobPoint {
    /// The paper-default workload at the given population size — the
    /// origin the minimiser shrinks toward.
    #[must_use]
    pub fn baseline(n_functions: usize) -> Self {
        let d = SynthConfig::default();
        Self {
            chain_prob: d.chain_prob,
            burst_bias: d.burst_bias,
            diurnal_fraction: d.diurnal_fraction,
            unseen_fraction: d.unseen_fraction,
            shift_fraction: d.shift_fraction,
            n_functions,
        }
    }

    /// The chain-heavy preset at the given population size: the
    /// neighbourhood of the original seed-57 adjusting inversion.
    ///
    /// # Panics
    /// Panics if the chain-heavy scenario vanishes from the registry.
    #[must_use]
    pub fn chain_heavy(n_functions: usize) -> Self {
        #[expect(clippy::expect_used, reason = "chain-heavy is a built-in scenario")]
        let cfg = synth::scenario_config("chain-heavy").expect("registered scenario");
        Self {
            chain_prob: cfg.chain_prob,
            burst_bias: cfg.burst_bias,
            diurnal_fraction: cfg.diurnal_fraction,
            unseen_fraction: cfg.unseen_fraction,
            shift_fraction: cfg.shift_fraction,
            n_functions,
        }
    }

    /// Materialises the point as a generator config. `quick` applies the
    /// CI shrink (7-day horizon) before the population override, exactly
    /// like the regression matrix does.
    #[must_use]
    pub fn to_synth(&self, quick: bool) -> SynthConfig {
        let base = SynthConfig::default();
        let mut cfg = SynthConfig {
            chain_prob: self.chain_prob,
            burst_bias: self.burst_bias,
            diurnal_fraction: self.diurnal_fraction,
            unseen_fraction: self.unseen_fraction,
            shift_fraction: self.shift_fraction,
            ..base
        };
        if quick {
            cfg = cfg.quick();
        }
        cfg.n_functions = self.n_functions;
        cfg
    }

    fn clamped(mut self) -> Self {
        self.chain_prob = self.chain_prob.clamp(0.0, CHAIN_PROB_MAX);
        self.burst_bias = self.burst_bias.clamp(0.0, BURST_BIAS_MAX);
        self.diurnal_fraction = self.diurnal_fraction.clamp(0.0, DIURNAL_MAX);
        self.unseen_fraction = self.unseen_fraction.clamp(0.0, UNSEEN_MAX);
        self.shift_fraction = self.shift_fraction.clamp(0.0, SHIFT_MAX);
        self.n_functions = self.n_functions.clamp(N_FUNCTIONS_MIN, N_FUNCTIONS_MAX);
        self
    }

    /// One random mutation: nudge a single knob, staying in bounds.
    fn mutated(&self, rng: &mut SmallRng) -> Self {
        let mut next = *self;
        match rng.random_range(0..6u32) {
            0 => next.chain_prob += (rng.random::<f64>() - 0.5) * 0.4,
            1 => next.burst_bias += (rng.random::<f64>() - 0.5) * 0.4,
            2 => next.diurnal_fraction += (rng.random::<f64>() - 0.5) * 0.4,
            3 => next.unseen_fraction += (rng.random::<f64>() - 0.5) * 0.1,
            4 => next.shift_fraction += (rng.random::<f64>() - 0.5) * 0.2,
            _ => {
                let factor = 0.7 + rng.random::<f64>() * 0.7;
                next.n_functions = (next.n_functions as f64 * factor).round() as usize;
            }
        }
        next.clamped()
    }

    /// A jittered start around the baseline for walks after the first.
    fn jittered(baseline: Self, rng: &mut SmallRng) -> Self {
        let mut p = baseline;
        for _ in 0..3 {
            p = p.mutated(rng);
        }
        p
    }
}

/// The two scores of one evaluated point, plus the raw Q3-CSR numbers
/// they are derived from (mean over the evaluation seeds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PointScore {
    /// Full-SPES mean Q3-CSR.
    pub spes_q3: f64,
    /// Clairvoyant-oracle mean Q3-CSR.
    pub oracle_q3: f64,
    /// `w/o Adjusting` ablation mean Q3-CSR.
    pub without_adjusting_q3: f64,
    /// `spes_q3 - oracle_q3`: how far SPES sits from the upper bound.
    pub regret: f64,
    /// `spes_q3 - without_adjusting_q3`: positive means adjusting hurt.
    pub inversion: f64,
}

/// One inversion the fuzzer found, with its minimised form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzFinding {
    /// Walk that visited the point.
    pub walk: u32,
    /// Step within the walk (0 = the walk's start point).
    pub step: u32,
    /// The point as visited.
    pub point: KnobPoint,
    /// Its score as visited.
    pub score: PointScore,
    /// The greedily minimised point (knobs shrunk toward baseline while
    /// the inversion persisted).
    pub minimised: KnobPoint,
    /// The minimised point's score.
    pub minimised_score: PointScore,
    /// Suggested registry name when pinning the minimised config.
    pub scenario_name: String,
}

/// The best (highest-regret) point a run visited, kept even when no
/// inversion was found — the next hunt starts from here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BestPoint {
    /// The point.
    pub point: KnobPoint,
    /// Its score.
    pub score: PointScore,
}

/// The `FUZZ_report.json` document. Deterministic for a fixed
/// [`FuzzConfig`]: no timestamps, no machine identifiers, stable field
/// and element order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzReport {
    /// Master seed behind the walks.
    pub master_seed: u64,
    /// Number of hill-climbing walks.
    pub walks: u32,
    /// Mutation steps per walk.
    pub steps: u32,
    /// Workload seeds each point was evaluated under.
    pub eval_seeds: Vec<u64>,
    /// Whether the CI horizon shrink was applied.
    pub quick: bool,
    /// Inversion threshold separating findings from noise.
    pub inversion_threshold: f64,
    /// Total points evaluated (walks, climbing, and minimisation).
    pub evals: u32,
    /// The highest-regret point visited.
    pub best: BestPoint,
    /// Every inversion found, in discovery order.
    pub findings: Vec<FuzzFinding>,
}

/// Parameters of one fuzzing run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzConfig {
    /// Master seed for the walk RNG.
    pub master_seed: u64,
    /// Number of independent walks (walk 0 starts chain-heavy).
    pub walks: u32,
    /// Mutation steps per walk.
    pub steps: u32,
    /// Starting population size of generated traces.
    pub n_functions: usize,
    /// Apply the CI horizon shrink to every generated trace.
    pub quick: bool,
    /// Workload seeds each point is evaluated under (scores are means
    /// across them).
    pub eval_seeds: Vec<u64>,
    /// Minimum inversion for a point to count as a finding.
    pub inversion_threshold: f64,
    /// Maximum evaluations the minimiser may spend per finding.
    pub minimise_budget: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            master_seed: 57,
            walks: 8,
            steps: 4,
            n_functions: 150,
            quick: true,
            eval_seeds: vec![57],
            inversion_threshold: 0.005,
            minimise_budget: 32,
        }
    }
}

/// Scores one point: two [`fold_matrix`] passes (the suite API keys
/// policies by unique name, and both configurations are named "spes", so
/// they cannot share a fold).
///
/// # Errors
/// Returns a message when suite construction or the matrix run fails.
pub fn evaluate_point(point: &KnobPoint, config: &FuzzConfig) -> Result<PointScore, String> {
    let scenario = vec![("fuzz".to_owned(), point.to_synth(config.quick))];
    let full_suite = policies::suite_of(&["spes", "oracle"], &SpesConfig::default())
        .map_err(|e| e.to_string())?;
    let full =
        fold_matrix(&scenario, &config.eval_seeds, &full_suite, drop).map_err(|e| e.to_string())?;
    let without_cfg = SpesConfig {
        enable_adjusting: false,
        ..SpesConfig::default()
    };
    let without_suite = policies::suite_of(&["spes"], &without_cfg).map_err(|e| e.to_string())?;
    let without = fold_matrix(&scenario, &config.eval_seeds, &without_suite, drop)
        .map_err(|e| e.to_string())?;

    let q3_of = |aggs: &[crate::matrix::PolicyAggregate], name: &str| -> Result<f64, String> {
        aggs.iter()
            .find(|a| a.policy == name)
            .map(|a| a.mean_q3_csr)
            .ok_or_else(|| format!("no aggregate for {name}"))
    };
    let spes_q3 = q3_of(&full, "spes")?;
    let oracle_q3 = q3_of(&full, "oracle")?;
    let without_adjusting_q3 = q3_of(&without, "spes")?;
    Ok(PointScore {
        spes_q3,
        oracle_q3,
        without_adjusting_q3,
        regret: spes_q3 - oracle_q3,
        inversion: spes_q3 - without_adjusting_q3,
    })
}

/// Greedily shrinks a finding toward the paper-default baseline while
/// its inversion stays above the threshold: each knob in turn is first
/// snapped to the baseline value, and if that loses the inversion, moved
/// halfway instead (two bisection refinements). Passes repeat until one
/// changes nothing or the evaluation budget runs out.
///
/// # Errors
/// Propagates evaluation failures.
pub fn minimise_finding(
    start: &KnobPoint,
    start_score: &PointScore,
    config: &FuzzConfig,
    evals: &mut u32,
) -> Result<(KnobPoint, PointScore), String> {
    let baseline = KnobPoint::baseline(start.n_functions.min(config.n_functions));
    let mut current = *start;
    let mut current_score = *start_score;
    let mut budget = config.minimise_budget;

    // Knob accessors, shared by the snap and bisection phases.
    type Get = fn(&KnobPoint) -> f64;
    type Set = fn(&mut KnobPoint, f64);
    let knobs: [(Get, Set); 6] = [
        (|p| p.chain_prob, |p, v| p.chain_prob = v),
        (|p| p.burst_bias, |p, v| p.burst_bias = v),
        (|p| p.diurnal_fraction, |p, v| p.diurnal_fraction = v),
        (|p| p.unseen_fraction, |p, v| p.unseen_fraction = v),
        (|p| p.shift_fraction, |p, v| p.shift_fraction = v),
        (
            |p| p.n_functions as f64,
            |p, v| p.n_functions = v.round() as usize,
        ),
    ];
    let base_vals: [f64; 6] = [
        baseline.chain_prob,
        baseline.burst_bias,
        baseline.diurnal_fraction,
        baseline.unseen_fraction,
        baseline.shift_fraction,
        baseline.n_functions as f64,
    ];

    loop {
        let mut changed = false;
        for ((get, set), &base) in knobs.iter().zip(&base_vals) {
            if budget == 0 {
                return Ok((current, current_score));
            }
            let cur = get(&current);
            if (cur - base).abs() < 1e-9 {
                continue;
            }
            // Snap to baseline, then bisect back toward the last value
            // that still inverts.
            let mut lo = base; // candidate (closer to baseline)
            let hi = cur; // known-inverting
            let mut accepted: Option<(f64, PointScore)> = None;
            for _ in 0..3 {
                if budget == 0 {
                    break;
                }
                let mut candidate = current;
                set(&mut candidate, lo);
                let candidate = candidate.clamped();
                *evals += 1;
                budget -= 1;
                let score = evaluate_point(&candidate, config)?;
                if score.inversion > config.inversion_threshold {
                    accepted = Some((lo, score));
                    break;
                }
                lo = (lo + hi) / 2.0;
            }
            if let Some((v, score)) = accepted {
                set(&mut current, v);
                current = current.clamped();
                current_score = score;
                changed = true;
            }
        }
        if !changed || budget == 0 {
            return Ok((current, current_score));
        }
    }
}

/// Runs the full search. `progress` receives one human-readable line per
/// evaluated point (the binary prints it; tests pass a sink).
///
/// # Errors
/// Rejects zero walks, zero functions, no evaluation seeds, and a
/// threshold that is NaN, infinite or negative; propagates evaluation
/// failures.
#[expect(clippy::expect_used, reason = "walks >= 1 is checked, so best is set")]
pub fn run_fuzz(config: &FuzzConfig, mut progress: impl FnMut(&str)) -> Result<FuzzReport, String> {
    if config.walks == 0 {
        return Err("walks must be at least 1".to_owned());
    }
    if config.n_functions == 0 {
        return Err("n_functions must be at least 1".to_owned());
    }
    check_threshold(config.inversion_threshold)?;
    if config.eval_seeds.is_empty() {
        return Err("at least one evaluation seed is required".to_owned());
    }
    let mut rng = SmallRng::seed_from_u64(config.master_seed);
    let baseline = KnobPoint::baseline(config.n_functions);
    let mut evals: u32 = 0;
    let mut best: Option<BestPoint> = None;
    let mut findings: Vec<FuzzFinding> = Vec::new();

    for walk in 0..config.walks {
        // Walk 0 re-audits the seed-57 neighbourhood every run; the rest
        // scatter around the baseline.
        let mut point = if walk == 0 {
            KnobPoint::chain_heavy(config.n_functions)
        } else {
            KnobPoint::jittered(baseline, &mut rng)
        };
        let mut score = evaluate_point(&point, config)?;
        evals += 1;
        progress(&format!(
            "walk {walk} step 0: regret {:.4} inversion {:+.4} ({point:?})",
            score.regret, score.inversion
        ));
        let mut handle_finding =
            |walk: u32, step: u32, p: &KnobPoint, s: &PointScore, evals: &mut u32| {
                if s.inversion <= config.inversion_threshold {
                    return Ok::<(), String>(());
                }
                let (minimised, minimised_score) = minimise_finding(p, s, config, evals)?;
                findings.push(FuzzFinding {
                    walk,
                    step,
                    point: *p,
                    score: *s,
                    minimised,
                    minimised_score,
                    scenario_name: format!("fuzz-w{walk}s{step}"),
                });
                Ok(())
            };
        handle_finding(walk, 0, &point, &score, &mut evals)?;
        for step in 1..=config.steps {
            let candidate = point.mutated(&mut rng);
            let candidate_score = evaluate_point(&candidate, config)?;
            evals += 1;
            progress(&format!(
                "walk {walk} step {step}: regret {:.4} inversion {:+.4} ({candidate:?})",
                candidate_score.regret, candidate_score.inversion
            ));
            handle_finding(walk, step, &candidate, &candidate_score, &mut evals)?;
            // Hill-climb on regret: keep the candidate only when it is a
            // strictly harder workload for SPES.
            if candidate_score.regret > score.regret {
                point = candidate;
                score = candidate_score;
            }
            if best.as_ref().is_none_or(|b| score.regret > b.score.regret) {
                best = Some(BestPoint { point, score });
            }
        }
        if best.as_ref().is_none_or(|b| score.regret > b.score.regret) {
            best = Some(BestPoint { point, score });
        }
    }

    Ok(FuzzReport {
        master_seed: config.master_seed,
        walks: config.walks,
        steps: config.steps,
        eval_seeds: config.eval_seeds.clone(),
        quick: config.quick,
        inversion_threshold: config.inversion_threshold,
        evals,
        best: best.expect("at least one walk evaluated"),
        findings,
    })
}

/// Renders the ready-to-paste scenario-registry entry for a minimised
/// finding (see `crates/trace/src/synth/scenarios.rs`): pinning an
/// emitted config is a copy of this snippet plus a regression test.
#[must_use]
pub fn scenario_snippet(finding: &FuzzFinding) -> String {
    let p = &finding.minimised;
    format!(
        "Scenario {{\n    name: \"{name}\",\n    summary: \"spes-fuzz emitted: adjusting \
         inversion {inv:+.4} at {n} functions\",\n    config: || SynthConfig {{\n        \
         chain_prob: {chain:.4},\n        burst_bias: {burst:.4},\n        diurnal_fraction: \
         {diurnal:.4},\n        unseen_fraction: {unseen:.4},\n        shift_fraction: \
         {shift:.4},\n        ..SynthConfig::default()\n    }},\n}},",
        name = finding.scenario_name,
        inv = finding.minimised_score.inversion,
        n = p.n_functions,
        chain = p.chain_prob,
        burst = p.burst_bias,
        diurnal = p.diurnal_fraction,
        unseen = p.unseen_fraction,
        shift = p.shift_fraction,
    )
}

/// A NaN threshold makes every comparison false, so every point becomes
/// a finding; a negative one turns non-inversions into findings.
fn check_threshold(threshold: f64) -> Result<(), String> {
    if threshold.is_finite() && threshold >= 0.0 {
        Ok(())
    } else {
        Err(format!(
            "inversion threshold {threshold} is not a finite, non-negative number"
        ))
    }
}

/// Structural validation of a parsed report — the CI smoke contract.
/// Checks the invariants serde cannot: positive walk/eval counts, seeds
/// present, a finite non-negative threshold, every finding above it,
/// and minimised points inside the knob bounds.
///
/// # Errors
/// Returns the first violated invariant.
pub fn validate_report(report: &FuzzReport) -> Result<(), String> {
    if report.walks == 0 {
        return Err("report has zero walks".to_owned());
    }
    if report.evals < report.walks {
        return Err(format!(
            "evals {} below walk count {}: starts unevaluated",
            report.evals, report.walks
        ));
    }
    if report.eval_seeds.is_empty() {
        return Err("report has no evaluation seeds".to_owned());
    }
    check_threshold(report.inversion_threshold)?;
    if !report.best.score.regret.is_finite() {
        return Err("best regret is not finite".to_owned());
    }
    for f in &report.findings {
        if f.score.inversion <= report.inversion_threshold {
            return Err(format!(
                "finding {} below the inversion threshold",
                f.scenario_name
            ));
        }
        let p = f.minimised.clamped();
        if p != f.minimised {
            return Err(format!(
                "finding {} minimised point outside knob bounds",
                f.scenario_name
            ));
        }
        if f.walk >= report.walks || f.step > report.steps {
            return Err(format!(
                "finding {} outside the walk/step grid",
                f.scenario_name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> FuzzConfig {
        FuzzConfig {
            master_seed: 3,
            walks: 2,
            steps: 1,
            n_functions: 40,
            quick: true,
            eval_seeds: vec![5],
            inversion_threshold: 0.005,
            minimise_budget: 4,
        }
    }

    #[test]
    fn knob_points_materialise_and_clamp() {
        let b = KnobPoint::baseline(120);
        let cfg = b.to_synth(true);
        assert_eq!(cfg.n_functions, 120);
        assert_eq!(cfg.days, 7);
        assert_eq!(cfg.chain_prob, SynthConfig::default().chain_prob);
        let wild = KnobPoint {
            chain_prob: 7.0,
            burst_bias: -1.0,
            diurnal_fraction: 2.0,
            unseen_fraction: 0.9,
            shift_fraction: 0.9,
            n_functions: 7,
        }
        .clamped();
        assert_eq!(wild.chain_prob, CHAIN_PROB_MAX);
        assert_eq!(wild.burst_bias, 0.0);
        assert_eq!(wild.diurnal_fraction, DIURNAL_MAX);
        assert_eq!(wild.unseen_fraction, UNSEEN_MAX);
        assert_eq!(wild.shift_fraction, SHIFT_MAX);
        assert_eq!(wild.n_functions, N_FUNCTIONS_MIN);
    }

    #[test]
    fn walk_zero_starts_in_the_seed_57_neighbourhood() {
        let p = KnobPoint::chain_heavy(150);
        assert_eq!(
            p.chain_prob,
            synth::scenario_config("chain-heavy").unwrap().chain_prob
        );
        assert_eq!(p.n_functions, 150);
    }

    #[test]
    fn evaluation_scores_are_consistent() {
        let config = tiny_config();
        let score = evaluate_point(&KnobPoint::baseline(40), &config).unwrap();
        assert!((score.regret - (score.spes_q3 - score.oracle_q3)).abs() < 1e-12);
        assert!((score.inversion - (score.spes_q3 - score.without_adjusting_q3)).abs() < 1e-12);
        // The clairvoyant oracle never cold-starts.
        assert_eq!(score.oracle_q3, 0.0);
    }

    #[test]
    fn fuzz_runs_are_deterministic() {
        let config = tiny_config();
        let a = run_fuzz(&config, |_| {}).unwrap();
        let b = run_fuzz(&config, |_| {}).unwrap();
        assert_eq!(a, b);
        let json_a = serde_json::to_string_pretty(&a).unwrap();
        let json_b = serde_json::to_string_pretty(&b).unwrap();
        assert_eq!(json_a, json_b, "same seed must emit byte-identical JSON");
        validate_report(&a).unwrap();
        let back: FuzzReport = serde_json::from_str(&json_a).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn different_master_seeds_walk_differently() {
        let a = run_fuzz(&tiny_config(), |_| {}).unwrap();
        let b = run_fuzz(
            &FuzzConfig {
                master_seed: 99,
                ..tiny_config()
            },
            |_| {},
        )
        .unwrap();
        // Walk 0 is pinned chain-heavy for both, but the jittered walk 1
        // must diverge.
        assert_ne!(a.best, b.best);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        assert!(run_fuzz(
            &FuzzConfig {
                walks: 0,
                ..tiny_config()
            },
            |_| {}
        )
        .is_err());
        assert!(run_fuzz(
            &FuzzConfig {
                eval_seeds: Vec::new(),
                ..tiny_config()
            },
            |_| {}
        )
        .is_err());
        let empty = FuzzConfig {
            n_functions: 0,
            ..tiny_config()
        };
        assert_eq!(
            run_fuzz(&empty, |_| {}).unwrap_err(),
            "n_functions must be at least 1"
        );
        for threshold in [f64::NAN, f64::INFINITY, -0.01] {
            let config = FuzzConfig {
                inversion_threshold: threshold,
                ..tiny_config()
            };
            let err = run_fuzz(&config, |_| {}).unwrap_err();
            assert!(err.starts_with("inversion threshold"), "{threshold}: {err}");
        }
    }

    #[test]
    fn validate_report_catches_broken_documents() {
        let config = tiny_config();
        let good = run_fuzz(&config, |_| {}).unwrap();
        let mut zero_walks = good.clone();
        zero_walks.walks = 0;
        assert!(validate_report(&zero_walks).is_err());
        let mut starved = good.clone();
        starved.evals = 0;
        assert!(validate_report(&starved).is_err());
        for threshold in [f64::NAN, f64::INFINITY, -0.01] {
            let mut report = good.clone();
            report.inversion_threshold = threshold;
            assert!(validate_report(&report).is_err(), "{threshold}");
        }
        // A NaN threshold is written as `null`; read back, it must still
        // fail validation.
        let mut nan = good.clone();
        nan.inversion_threshold = f64::NAN;
        let text = serde_json::to_string(&nan).unwrap();
        assert!(text.contains("\"inversion_threshold\":null"), "{text}");
        let back: FuzzReport = serde_json::from_str(&text).unwrap();
        assert!(validate_report(&back).is_err());
        let mut bogus_finding = good;
        bogus_finding.findings.push(FuzzFinding {
            walk: 0,
            step: 0,
            point: KnobPoint::baseline(40),
            score: PointScore {
                spes_q3: 0.1,
                oracle_q3: 0.0,
                without_adjusting_q3: 0.2,
                regret: 0.1,
                inversion: -0.1,
            },
            minimised: KnobPoint::baseline(40),
            minimised_score: PointScore {
                spes_q3: 0.1,
                oracle_q3: 0.0,
                without_adjusting_q3: 0.2,
                regret: 0.1,
                inversion: -0.1,
            },
            scenario_name: "fuzz-bogus".to_owned(),
        });
        assert!(validate_report(&bogus_finding).is_err());
    }

    #[test]
    fn scenario_snippets_are_paste_ready() {
        let finding = FuzzFinding {
            walk: 1,
            step: 2,
            point: KnobPoint::baseline(100),
            score: PointScore {
                spes_q3: 0.3,
                oracle_q3: 0.0,
                without_adjusting_q3: 0.2,
                regret: 0.3,
                inversion: 0.1,
            },
            minimised: KnobPoint {
                chain_prob: 0.9,
                ..KnobPoint::baseline(80)
            },
            minimised_score: PointScore {
                spes_q3: 0.3,
                oracle_q3: 0.0,
                without_adjusting_q3: 0.22,
                regret: 0.3,
                inversion: 0.08,
            },
            scenario_name: "fuzz-w1s2".to_owned(),
        };
        let snippet = scenario_snippet(&finding);
        assert!(snippet.contains("name: \"fuzz-w1s2\""));
        assert!(snippet.contains("chain_prob: 0.9000"));
        assert!(snippet.contains("..SynthConfig::default()"));
    }
}
