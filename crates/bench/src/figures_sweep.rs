//! Parameter sweeps and ablations: Figs. 13, 14, and 15.
//!
//! The sweeps run independent SPES configurations over the same trace, in
//! parallel through `par`, the harness's bounded fan-out shared with the
//! seed × scenario matrix (the trace is shared read-only).

use crate::figures::{table, Rendered};
use crate::par;
use serde::Serialize;
use spes_core::{SpesConfig, SpesPolicy};
use spes_sim::{try_simulate, RunResult, SimConfig};
use spes_trace::SynthTrace;

/// One point of a Fig. 13 trade-off curve.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// The swept parameter value (θprewarm, or the give-up scaler).
    pub param: u32,
    /// Mean memory usage normalised to the paper's default setting.
    pub normalized_memory: f64,
    /// 75th-percentile cold-start rate.
    pub q3_csr: f64,
}

/// Runs SPES once per configuration, at most `available_parallelism`
/// at a time, preserving input order: each run fits SPES on the trace's
/// training window and simulates the whole horizon, measuring from the
/// training boundary, exactly as SPES runs in a suite.
fn run_each(data: &SynthTrace, configs: Vec<SpesConfig>) -> Vec<RunResult> {
    let trace = &data.trace;
    let window = SimConfig::new(0, trace.n_slots).with_metrics_start(data.train_end);
    let mut runs = Vec::with_capacity(configs.len());
    #[expect(clippy::expect_used, reason = "the window is the trace's own horizon")]
    par::for_each_ordered(
        configs,
        |cfg| {
            let mut spes = SpesPolicy::fit(trace, 0, data.train_end, cfg);
            try_simulate(trace, &mut spes, window)
        },
        |run| run.map(|run| runs.push(run)),
    )
    .expect("a SPES run on the trace-carried window completes");
    runs
}

/// Runs one SPES configuration per parameter value, memory normalised to
/// the `reference` value's run.
fn sweep(
    data: &SynthTrace,
    params: [u32; 5],
    reference: u32,
    config: impl Fn(u32) -> SpesConfig,
) -> Vec<SweepPoint> {
    let runs = run_each(data, params.iter().map(|&p| config(p)).collect());
    let reference = params
        .iter()
        .zip(&runs)
        .find(|&(&p, _)| p == reference)
        .map_or(1.0, |(_, run)| run.mean_loaded())
        .max(f64::MIN_POSITIVE);
    params
        .into_iter()
        .zip(&runs)
        .map(|(param, run)| SweepPoint {
            param,
            normalized_memory: run.mean_loaded() / reference,
            q3_csr: run.csr_percentile(75.0).unwrap_or(0.0),
        })
        .collect()
}

/// Fig. 13a: θprewarm sweep over {1, 2, 3, 5, 10}, memory normalised to
/// the default θprewarm = 2 run.
#[must_use]
pub fn fig13_prewarm(data: &SynthTrace, base: &SpesConfig) -> Vec<SweepPoint> {
    sweep(data, [1, 2, 3, 5, 10], 2, |p| SpesConfig {
        theta_prewarm: p,
        ..base.clone()
    })
}

/// Fig. 13b: give-up scaler sweep over {1, .., 5}, memory normalised to
/// the default scaler = 1 run.
#[must_use]
pub fn fig13_givenup(data: &SynthTrace, base: &SpesConfig) -> Vec<SweepPoint> {
    sweep(data, [1, 2, 3, 4, 5], 1, |p| SpesConfig {
        givenup_scaler: p,
        ..base.clone()
    })
}

pub(crate) fn render_fig13(data: &SynthTrace, base: &SpesConfig) -> Rendered {
    let prewarm = fig13_prewarm(data, base);
    let givenup = fig13_givenup(data, base);
    let curve = |param: &str, memory: &str, points: &[SweepPoint]| {
        let rows = points.iter().map(|p| {
            vec![
                p.param.to_string(),
                format!("{:.3}", p.normalized_memory),
                format!("{:.3}", p.q3_csr),
            ]
        });
        table(&[param, memory, "Q3-CSR"], rows)
    };
    let text = format!(
        "(a) theta_prewarm sweep\n{}(b) give-up scaler sweep\n{}",
        curve("theta", "memory (theta=2)", &prewarm),
        curve("scaler", "memory (x1)", &givenup)
    );
    let documents = vec![
        ("fig13a.json", prewarm.to_value()),
        ("fig13b.json", givenup.to_value()),
    ];
    Rendered { text, documents }
}

/// One ablation variant's headline metrics (Figs. 14 and 15).
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Variant name ("spes", "w/o Corr", ...).
    pub variant: String,
    /// 75th-percentile cold-start rate.
    pub q3_csr: f64,
    /// Mean memory usage normalised to full SPES.
    pub normalized_memory: f64,
    /// Total WMT normalised to full SPES.
    pub normalized_wmt: f64,
}

/// An ablation variant: its name and how it disables one design.
type Variant = (&'static str, fn(&mut SpesConfig));

/// Runs full SPES (the reference row) and two variants of it.
fn ablation(data: &SynthTrace, base: &SpesConfig, variants: [Variant; 2]) -> Vec<AblationRow> {
    let mut configs = vec![base.clone(); 3];
    for (cfg, (_, off)) in configs[1..].iter_mut().zip(variants) {
        off(cfg);
    }
    let runs = run_each(data, configs);
    let ref_mem = runs[0].mean_loaded().max(f64::MIN_POSITIVE);
    let ref_wmt = (runs[0].total_wmt() as f64).max(f64::MIN_POSITIVE);
    let names = std::iter::once("spes").chain(variants.map(|(name, _)| name));
    names
        .zip(&runs)
        .map(|(variant, run)| AblationRow {
            variant: variant.to_owned(),
            q3_csr: run.csr_percentile(75.0).unwrap_or(0.0),
            normalized_memory: run.mean_loaded() / ref_mem,
            normalized_wmt: run.total_wmt() as f64 / ref_wmt,
        })
        .collect()
}

/// Fig. 14: impact of the inter-function correlation designs. The first
/// row is full SPES; "w/o Corr" disables the offline correlated type;
/// "w/o Online-Corr" disables the unseen-function online correlation.
#[must_use]
pub fn fig14(data: &SynthTrace, base: &SpesConfig) -> Vec<AblationRow> {
    ablation(
        data,
        base,
        [
            ("w/o Corr", |c| c.enable_correlated = false),
            ("w/o Online-Corr", |c| c.enable_online_corr = false),
        ],
    )
}

/// Fig. 15: impact of the concept-shift designs. "w/o Forgetting" skips
/// the day-sliced re-check; "w/o Adjusting" freezes predictive values.
#[must_use]
pub fn fig15(data: &SynthTrace, base: &SpesConfig) -> Vec<AblationRow> {
    ablation(
        data,
        base,
        [
            ("w/o Forgetting", |c| c.enable_forgetting = false),
            ("w/o Adjusting", |c| c.enable_adjusting = false),
        ],
    )
}

pub(crate) fn render_fig14(data: &SynthTrace, base: &SpesConfig) -> Rendered {
    let rows = fig14(data, base);
    Rendered::one("fig14.json", &rows, ablation_text(&rows))
}

pub(crate) fn render_fig15(data: &SynthTrace, base: &SpesConfig) -> Rendered {
    let rows = fig15(data, base);
    Rendered::one("fig15.json", &rows, ablation_text(&rows))
}

fn ablation_text(rows: &[AblationRow]) -> String {
    let rows = rows.iter().map(|r| {
        vec![
            r.variant.clone(),
            format!("{:.3}", r.q3_csr),
            format!("{:.3}", r.normalized_memory),
            format!("{:.3}", r.normalized_wmt),
        ]
    });
    table(
        &["variant", "Q3-CSR", "memory (SPES=1)", "WMT (SPES=1)"],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::spec_of;
    use crate::scenario::{run_suite_comparison, Experiment};

    fn data() -> SynthTrace {
        Experiment::sized(180, 51).generate()
    }

    /// The sweeps' runs stand in for SPES's run in a suite: on the same
    /// trace and config, `run_each` must return the suite's `spes` run in
    /// every field but the wall-clock `overhead_secs`.
    #[test]
    fn run_each_matches_the_suite_run_of_spes() {
        let data = Experiment::cell("quick", 60, 7, true).unwrap().generate();
        let without_adjusting = SpesConfig {
            enable_adjusting: false,
            ..SpesConfig::default()
        };
        let configs = vec![SpesConfig::default(), without_adjusting];
        let runs = run_each(&data, configs.clone());
        assert_eq!(runs.len(), configs.len());
        for (mut run, cfg) in runs.into_iter().zip(&configs) {
            let suite = [spec_of("spes", cfg).unwrap()];
            let cmp = run_suite_comparison(&data, &suite).unwrap();
            let expected = &cmp.runs[0];
            assert!(expected.total_invocations() > 0);
            run.overhead_secs = expected.overhead_secs;
            assert_eq!(&run, expected);
        }
    }

    #[test]
    fn prewarm_sweep_has_reference_point() {
        let d = data();
        let points = fig13_prewarm(&d, &SpesConfig::default());
        assert_eq!(points.len(), 5);
        let reference = points.iter().find(|p| p.param == 2).unwrap();
        assert!((reference.normalized_memory - 1.0).abs() < 1e-12);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.q3_csr));
        }
    }

    #[test]
    fn larger_prewarm_uses_more_memory() {
        let d = data();
        let points = fig13_prewarm(&d, &SpesConfig::default());
        let mem_1 = points
            .iter()
            .find(|p| p.param == 1)
            .unwrap()
            .normalized_memory;
        let mem_10 = points
            .iter()
            .find(|p| p.param == 10)
            .unwrap()
            .normalized_memory;
        assert!(mem_10 > mem_1, "{mem_10} <= {mem_1}");
    }

    #[test]
    fn givenup_sweep_memory_monotone() {
        let d = data();
        let points = fig13_givenup(&d, &SpesConfig::default());
        assert_eq!(points.len(), 5);
        let mem_1 = points
            .iter()
            .find(|p| p.param == 1)
            .unwrap()
            .normalized_memory;
        let mem_5 = points
            .iter()
            .find(|p| p.param == 5)
            .unwrap()
            .normalized_memory;
        assert!(mem_5 > mem_1, "{mem_5} <= {mem_1}");
    }

    #[test]
    fn ablations_reference_first_row() {
        let d = data();
        let rows = fig14(&d, &SpesConfig::default());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].variant, "spes");
        assert!((rows[0].normalized_memory - 1.0).abs() < 1e-12);
        assert!((rows[0].normalized_wmt - 1.0).abs() < 1e-12);

        let rows15 = fig15(&d, &SpesConfig::default());
        assert_eq!(rows15.len(), 3);
        assert_eq!(rows15[1].variant, "w/o Forgetting");
    }
}
