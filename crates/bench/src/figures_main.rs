//! Main-evaluation figures: Table I census, Figs. 8-12, the RQ2
//! overhead table, and the per-slot [`Timeline`], all computed from one
//! [`ComparisonRun`].

use crate::figures::{paper, pct, table, Rendered};
use crate::scenario::{ComparisonRun, POLICY_ORDER};
use serde::{Deserialize, Serialize};
use spes_sim::{normalized, per_category_stats};
use spes_trace::Slot;

/// Table I census: how many functions landed in each SPES type.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Census {
    /// `(type label, function count)` rows.
    pub rows: Vec<(String, usize)>,
    /// Functions recovered by forgetting during the fit.
    pub recovered_by_forgetting: usize,
    /// Functions with zero training invocations.
    pub unseen: usize,
}

/// Builds the census from a comparison run; `None` when the suite did
/// not include SPES (the census describes SPES's offline fit).
#[must_use]
pub fn table1(cmp: &ComparisonRun) -> Option<Table1Census> {
    let fit = cmp.fit_summary.as_ref()?;
    let mut rows: Vec<(String, usize)> = fit
        .per_type
        .iter()
        .map(|(&k, &v)| (k.to_owned(), v))
        .collect();
    rows.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    Some(Table1Census {
        rows,
        recovered_by_forgetting: fit.recovered_by_forgetting,
        unseen: fit.unseen,
    })
}

pub(crate) fn render_table1(cmp: &ComparisonRun) -> Option<Rendered> {
    let census = table1(cmp)?;
    let rows = census
        .rows
        .iter()
        .map(|(t, c)| vec![t.clone(), c.to_string()]);
    let text = format!(
        "{}recovered by forgetting: {}; unseen in training: {}\n",
        table(&["type", "functions"], rows),
        census.recovered_by_forgetting,
        census.unseen
    );
    Some(Rendered::one("table1.json", &census, text))
}

/// Fig. 8: the CDF of function-wise cold-start rates per policy, plus the
/// headline percentile comparisons.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8 {
    /// CSR evaluation points of the CDF.
    pub points: Vec<f64>,
    /// Per-policy CDF values at each point: `(policy, cdf values)`.
    pub cdf: Vec<(String, Vec<f64>)>,
    /// 75th-percentile CSR per policy (the paper's Q3-CSR).
    pub q3_csr: Vec<(String, f64)>,
    /// 90th-percentile CSR per policy.
    pub p90_csr: Vec<(String, f64)>,
    /// Fraction of invoked functions with zero cold starts per policy.
    pub warm_fraction: Vec<(String, f64)>,
    /// SPES Q3-CSR improvement over the best baseline, in percent (the
    /// paper's value is [`crate::figures::paper::Q3_CSR_GAIN`]); 0 when
    /// the suite lacks `spes` or a baseline.
    pub q3_improvement_pct: f64,
}

/// Builds Fig. 8.
#[must_use]
pub fn fig8(cmp: &ComparisonRun) -> Fig8 {
    let points: Vec<f64> = (0..=50).map(|i| f64::from(i) / 50.0).collect();
    let mut cdf = Vec::new();
    let mut q3_csr = Vec::new();
    let mut p90_csr = Vec::new();
    let mut warm_fraction = Vec::new();
    for run in &cmp.runs {
        let name = run.policy_name.clone();
        cdf.push((
            name.clone(),
            run.csr_cdf(&points).into_iter().map(|(_, y)| y).collect(),
        ));
        q3_csr.push((name.clone(), run.csr_percentile(75.0).unwrap_or(0.0)));
        p90_csr.push((name.clone(), run.csr_percentile(90.0).unwrap_or(0.0)));
        warm_fraction.push((name, run.warm_function_fraction()));
    }
    let spes_q3 = q3_csr.iter().find(|(n, _)| n == "spes").map(|&(_, v)| v);
    // "Best baseline" means the paper's comparison set: bounds (the
    // oracle, the trivial brackets, any unregistered custom policy) must
    // not distort the headline number, so only default-suite members
    // count.
    let is_baseline = |name: &str| name != "spes" && POLICY_ORDER.contains(&name);
    let best_baseline_q3 = q3_csr
        .iter()
        .filter(|(n, _)| is_baseline(n))
        .map(|&(_, v)| v)
        .fold(f64::INFINITY, f64::min);
    let q3_improvement_pct = match spes_q3 {
        Some(spes_q3) if best_baseline_q3.is_finite() && best_baseline_q3 > 0.0 => {
            (best_baseline_q3 - spes_q3) / best_baseline_q3 * 100.0
        }
        _ => 0.0,
    };
    Fig8 {
        points,
        cdf,
        q3_csr,
        p90_csr,
        warm_fraction,
        q3_improvement_pct,
    }
}

/// Renders Fig. 8 for `repro`: the percentile table and, when the suite
/// has SPES, its gain over the best baseline.
pub(crate) fn render_fig8(cmp: &ComparisonRun) -> Option<Rendered> {
    let fig = fig8(cmp);
    let rows = fig
        .q3_csr
        .iter()
        .zip(&fig.p90_csr)
        .zip(&fig.warm_fraction)
        .map(|(((name, q3), (_, p90)), (_, warm))| {
            vec![
                name.clone(),
                format!("{q3:.3}"),
                format!("{p90:.3}"),
                pct(*warm),
            ]
        });
    let gain = if fig.q3_csr.iter().any(|(n, _)| n == "spes") {
        format!("{:.2}%", fig.q3_improvement_pct)
    } else {
        "does not apply without spes".to_owned()
    };
    let text = format!(
        "{}SPES Q3-CSR improvement over best baseline: {gain} (paper: {})\n",
        table(&["policy", "Q3-CSR", "P90-CSR", "fully-warm"], rows),
        paper::Q3_CSR_GAIN
    );
    Some(Rendered::one("fig8.json", &fig, text))
}

/// Fig. 9: normalised memory usage (a) and always-cold percentage (b).
#[derive(Debug, Clone, Serialize)]
pub struct Fig9 {
    /// Mean loaded instances normalised to SPES (Fig. 9a).
    pub normalized_memory: Vec<(String, f64)>,
    /// Percentage of invoked functions that are always cold (Fig. 9b).
    pub always_cold_pct: Vec<(String, f64)>,
}

/// Reference policy for normalised figures: SPES when present (the
/// paper's convention), otherwise the suite's first policy.
fn reference_policy(cmp: &ComparisonRun) -> &str {
    if cmp.try_run_of("spes").is_some() {
        "spes"
    } else {
        &cmp.runs[0].policy_name
    }
}

/// Builds Fig. 9.
#[must_use]
pub fn fig9(cmp: &ComparisonRun) -> Fig9 {
    Fig9 {
        normalized_memory: normalized(&cmp.runs, reference_policy(cmp), |r| r.mean_loaded()),
        always_cold_pct: cmp
            .runs
            .iter()
            .map(|r| (r.policy_name.clone(), r.always_cold_fraction() * 100.0))
            .collect(),
    }
}

pub(crate) fn render_fig9(cmp: &ComparisonRun) -> Option<Rendered> {
    let fig = fig9(cmp);
    let rows =
        fig.normalized_memory
            .iter()
            .zip(&fig.always_cold_pct)
            .map(|((name, mem), (_, cold))| {
                vec![name.clone(), format!("{mem:.3}"), format!("{cold:.2}%")]
            });
    let text = table(&["policy", "memory (ref=1)", "always-cold"], rows);
    Some(Rendered::one("fig9.json", &fig, text))
}

/// Fig. 10: mean CSR per SPES function type.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10 {
    /// `(type, mean CSR, invoked functions)` rows.
    pub rows: Vec<(String, f64, usize)>,
}

/// Builds Fig. 10 from the SPES run and its category labels; `None`
/// when the suite did not include SPES.
#[must_use]
pub fn fig10(cmp: &ComparisonRun) -> Option<Fig10> {
    let spes_run = cmp.try_run_of("spes")?;
    let stats = per_category_stats(spes_run, |f| Some(cmp.spes_labels[f]));
    let rows = stats
        .into_iter()
        .map(|(label, s)| (label.to_owned(), s.mean_csr, s.functions))
        .collect();
    Some(Fig10 { rows })
}

pub(crate) fn render_fig10(cmp: &ComparisonRun) -> Option<Rendered> {
    let fig = fig10(cmp)?;
    let rows = fig
        .rows
        .iter()
        .map(|(t, csr, n)| vec![t.clone(), format!("{csr:.3}"), n.to_string()]);
    let text = table(&["type", "mean CSR", "functions"], rows);
    Some(Rendered::one("fig10.json", &fig, text))
}

/// Fig. 11: normalised wasted memory time (a) and EMCR (b).
#[derive(Debug, Clone, Serialize)]
pub struct Fig11 {
    /// Total WMT normalised to SPES.
    pub normalized_wmt: Vec<(String, f64)>,
    /// Effective memory consumption ratio per policy.
    pub emcr: Vec<(String, f64)>,
}

/// Builds Fig. 11.
#[must_use]
pub fn fig11(cmp: &ComparisonRun) -> Fig11 {
    Fig11 {
        normalized_wmt: normalized(&cmp.runs, reference_policy(cmp), |r| r.total_wmt() as f64),
        emcr: cmp
            .runs
            .iter()
            .map(|r| (r.policy_name.clone(), r.emcr()))
            .collect(),
    }
}

pub(crate) fn render_fig11(cmp: &ComparisonRun) -> Option<Rendered> {
    let fig = fig11(cmp);
    let rows = fig
        .normalized_wmt
        .iter()
        .zip(&fig.emcr)
        .map(|((name, wmt), (_, emcr))| vec![name.clone(), format!("{wmt:.3}"), pct(*emcr)]);
    let text = table(&["policy", "WMT (ref=1)", "EMCR"], rows);
    Some(Rendered::one("fig11.json", &fig, text))
}

/// Fig. 12: WMT / invocations ratio per SPES function type.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12 {
    /// `(type, mean WMT ratio)` rows.
    pub rows: Vec<(String, f64)>,
}

/// Builds Fig. 12; `None` when the suite did not include SPES.
#[must_use]
pub fn fig12(cmp: &ComparisonRun) -> Option<Fig12> {
    let spes_run = cmp.try_run_of("spes")?;
    let stats = per_category_stats(spes_run, |f| Some(cmp.spes_labels[f]));
    let rows = stats
        .into_iter()
        .map(|(label, s)| (label.to_owned(), s.mean_wmt_ratio))
        .collect();
    Some(Fig12 { rows })
}

pub(crate) fn render_fig12(cmp: &ComparisonRun) -> Option<Rendered> {
    let fig = fig12(cmp)?;
    let rows = fig
        .rows
        .iter()
        .map(|(t, r)| vec![t.clone(), format!("{r:.2}")]);
    let text = table(&["type", "WMT ratio"], rows);
    Some(Rendered::one("fig12.json", &fig, text))
}

/// Per-slot time series of the measured window, downsampled to `stride`
/// slots per point: memory (loaded instances), cold starts, and EMCR per
/// policy. Everything comes from the [`spes_sim::SlotSeries`] observers
/// that rode along the comparison's single simulation per policy — no
/// re-runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// First slot of the series (the measurement boundary).
    pub start: Slot,
    /// Slots aggregated into one point.
    pub stride: u32,
    /// Per-policy curves, in suite order.
    pub policies: Vec<TimelinePolicy>,
}

/// One policy's downsampled curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelinePolicy {
    /// Policy name.
    pub policy: String,
    /// Mean loaded instances per stride window.
    pub mean_loaded: Vec<f64>,
    /// Cold starts per stride window (sum).
    pub cold: Vec<u64>,
    /// Mean per-slot EMCR per stride window.
    pub mean_emcr: Vec<f64>,
}

/// Builds the timeline from the comparison's recorded slot series,
/// aggregating `stride` slots per point (`stride = 60` gives hourly
/// curves). A trailing partial window is aggregated over its actual
/// length.
///
/// # Panics
/// Panics if `stride` is zero.
#[must_use]
pub fn timeline(cmp: &ComparisonRun, stride: u32) -> Timeline {
    assert!(stride > 0, "stride must be positive");
    let chunk = stride as usize;
    let policies = cmp
        .runs
        .iter()
        .zip(&cmp.slot_series)
        .map(|(run, series)| TimelinePolicy {
            policy: run.policy_name.clone(),
            mean_loaded: series
                .loaded
                .chunks(chunk)
                .map(|w| w.iter().map(|&v| f64::from(v)).sum::<f64>() / w.len() as f64)
                .collect(),
            cold: series
                .cold
                .chunks(chunk)
                .map(|w| w.iter().map(|&v| u64::from(v)).sum())
                .collect(),
            mean_emcr: series
                .emcr
                .chunks(chunk)
                .map(|w| w.iter().sum::<f64>() / w.len() as f64)
                .collect(),
        })
        .collect();
    Timeline {
        start: cmp.slot_series.first().map_or(0, |s| s.start),
        stride,
        policies,
    }
}

/// Renders the hourly [`Timeline`] for `repro`: each policy's curve
/// length, peak, and cold-start totals.
pub(crate) fn render_series(cmp: &ComparisonRun) -> Option<Rendered> {
    let timeline = timeline(cmp, 60);
    let rows = timeline.policies.iter().map(|p| {
        let peak_mem = p.mean_loaded.iter().copied().fold(0.0f64, f64::max);
        vec![
            p.policy.clone(),
            p.mean_loaded.len().to_string(),
            format!("{peak_mem:.1}"),
            p.cold.iter().sum::<u64>().to_string(),
            p.cold.iter().copied().max().unwrap_or(0).to_string(),
        ]
    });
    let header = [
        "policy",
        "hours",
        "peak mem (hourly)",
        "cold total",
        "cold max/hour",
    ];
    let text = table(&header, rows);
    Some(Rendered::one("series.json", &timeline, text))
}

/// Eviction forensics per policy, from the [`spes_sim::EvictionAudit`]
/// observers that rode along the comparison's one simulation per policy.
#[derive(Debug, Clone, Serialize)]
pub struct FigEvictions {
    /// Re-loads within this many slots of an eviction count as premature.
    pub premature_window: Slot,
    /// Per-policy forensics, in suite order.
    pub rows: Vec<EvictionRow>,
}

/// One policy's eviction forensics.
#[derive(Debug, Clone, Serialize)]
pub struct EvictionRow {
    /// Policy name.
    pub policy: String,
    /// Evictions the policy decided.
    pub policy_evictions: u64,
    /// Evictions forced by pool capacity.
    pub capacity_evictions: u64,
    /// Loads of previously evicted functions.
    pub reloads: u64,
    /// Re-loads within the premature window.
    pub premature_reloads: u64,
    /// `premature_reloads / total evictions` (0 with no evictions).
    pub premature_fraction: f64,
}

/// Builds the eviction-forensics figure.
#[must_use]
pub fn evictions(cmp: &ComparisonRun) -> FigEvictions {
    FigEvictions {
        premature_window: spes_sim::PREMATURE_RELOAD_WINDOW,
        rows: cmp
            .runs
            .iter()
            .zip(&cmp.audits)
            .map(|(run, audit)| EvictionRow {
                policy: run.policy_name.clone(),
                policy_evictions: audit.policy_evictions,
                capacity_evictions: audit.capacity_evictions,
                reloads: audit.reloads,
                premature_reloads: audit.premature_reloads,
                premature_fraction: audit.premature_fraction(),
            })
            .collect(),
    }
}

pub(crate) fn render_evictions(cmp: &ComparisonRun) -> Option<Rendered> {
    let fig = evictions(cmp);
    let rows = fig.rows.iter().map(|r| {
        vec![
            r.policy.clone(),
            r.policy_evictions.to_string(),
            r.capacity_evictions.to_string(),
            r.reloads.to_string(),
            r.premature_reloads.to_string(),
            pct(r.premature_fraction),
        ]
    });
    let header = [
        "policy",
        "policy evicts",
        "capacity evicts",
        "reloads",
        "premature",
        "premature frac",
    ];
    let text = format!(
        "premature = reloaded within {} slots\n{}",
        fig.premature_window,
        table(&header, rows)
    );
    Some(Rendered::one("evictions.json", &fig, text))
}

/// Per-app fairness of the cold-start burden per policy, from the
/// [`spes_sim::Fairness`] observers of the same one-suite simulation.
#[derive(Debug, Clone, Serialize)]
pub struct FigFairness {
    /// Per-policy summaries, in suite order.
    pub rows: Vec<FairnessRow>,
}

/// One policy's fairness summary.
#[derive(Debug, Clone, Serialize)]
pub struct FairnessRow {
    /// Policy name.
    pub policy: String,
    /// Applications in the trace.
    pub apps: usize,
    /// Applications with at least one measured invocation.
    pub invoked_apps: usize,
    /// Gini coefficient of app-level cold-start rates (0 = every app
    /// sees the same CSR).
    pub gini_csr: f64,
    /// Worst cold-share : invocation-share ratio across apps.
    pub max_burden_ratio: f64,
    /// The most disproportionately cold applications (by burden ratio,
    /// descending; ties broken by app id), at most five.
    pub worst_apps: Vec<WorstApp>,
}

/// One over-burdened application.
#[derive(Debug, Clone, Serialize)]
pub struct WorstApp {
    /// Application id.
    pub app: u32,
    /// The app's share of measured invocations.
    pub invocation_share: f64,
    /// The app's share of measured cold starts.
    pub cold_share: f64,
    /// `cold_share / invocation_share`.
    pub burden_ratio: f64,
}

/// Builds the fairness figure.
#[must_use]
pub fn fairness(cmp: &ComparisonRun) -> FigFairness {
    FigFairness {
        rows: cmp
            .runs
            .iter()
            .zip(&cmp.fairness)
            .map(|(run, fair)| {
                let shares = fair.shares();
                let mut worst: Vec<&spes_sim::AppShare> =
                    shares.iter().filter(|s| s.invocations > 0).collect();
                worst.sort_by(|a, b| {
                    b.burden_ratio()
                        .total_cmp(&a.burden_ratio())
                        .then(a.app.cmp(&b.app))
                });
                FairnessRow {
                    policy: run.policy_name.clone(),
                    apps: fair.n_apps(),
                    invoked_apps: worst.len(),
                    gini_csr: fair.gini_csr(),
                    max_burden_ratio: fair.max_burden_ratio(),
                    worst_apps: worst
                        .into_iter()
                        .take(5)
                        .map(|s| WorstApp {
                            app: s.app.0,
                            invocation_share: s.invocation_share,
                            cold_share: s.cold_share,
                            burden_ratio: s.burden_ratio(),
                        })
                        .collect(),
                }
            })
            .collect(),
    }
}

pub(crate) fn render_fairness(cmp: &ComparisonRun) -> Option<Rendered> {
    let fig = fairness(cmp);
    let rows = fig.rows.iter().map(|r| {
        vec![
            r.policy.clone(),
            r.invoked_apps.to_string(),
            format!("{:.3}", r.gini_csr),
            format!("{:.2}", r.max_burden_ratio),
            r.worst_apps
                .first()
                .map_or_else(|| "-".to_owned(), |w| format!("app {}", w.app)),
        ]
    });
    let header = [
        "policy",
        "invoked apps",
        "Gini(CSR)",
        "max burden",
        "worst app",
    ];
    Some(Rendered::one("fairness.json", &fig, table(&header, rows)))
}

/// Pool headroom per policy, from the [`spes_sim::MemoryPressure`]
/// observers of the same one-suite simulation. Policies running
/// unlimited report occupancy statistics with no headroom columns.
#[derive(Debug, Clone, Serialize)]
pub struct FigPressure {
    /// Per-policy summaries, in suite order.
    pub rows: Vec<PressureRow>,
}

/// One policy's pool-pressure summary.
#[derive(Debug, Clone, Serialize)]
pub struct PressureRow {
    /// Policy name.
    pub policy: String,
    /// The budget headroom was tracked against (the run's resolved
    /// capacity); `None` for unlimited runs.
    pub budget: Option<usize>,
    /// Highest occupancy at any point of the run.
    pub peak_occupancy: usize,
    /// Mean end-of-slot occupancy.
    pub mean_occupancy: f64,
    /// Smallest end-of-slot headroom; `None` without a budget.
    pub min_headroom: Option<usize>,
    /// Fraction of slots that ended at or above the budget.
    pub pressure_fraction: f64,
    /// Policy loads refused by admission control.
    pub rejected_loads: u64,
}

/// Builds the pressure figure.
#[must_use]
pub fn pressure(cmp: &ComparisonRun) -> FigPressure {
    FigPressure {
        rows: cmp
            .runs
            .iter()
            .zip(&cmp.pressure)
            .map(|(run, p)| PressureRow {
                policy: run.policy_name.clone(),
                budget: p.budget(),
                peak_occupancy: p.peak_occupancy,
                mean_occupancy: p.mean_occupancy(),
                min_headroom: p.min_headroom,
                pressure_fraction: p.pressure_fraction(),
                rejected_loads: p.rejected_loads,
            })
            .collect(),
    }
}

pub(crate) fn render_pressure(cmp: &ComparisonRun) -> Option<Rendered> {
    let fig = pressure(cmp);
    let rows = fig.rows.iter().map(|r| {
        vec![
            r.policy.clone(),
            r.budget
                .map_or_else(|| "unlimited".to_owned(), |b| b.to_string()),
            r.peak_occupancy.to_string(),
            format!("{:.1}", r.mean_occupancy),
            r.min_headroom
                .map_or_else(|| "-".to_owned(), |h| h.to_string()),
            pct(r.pressure_fraction),
            r.rejected_loads.to_string(),
        ]
    });
    let header = [
        "policy",
        "budget",
        "peak",
        "mean loaded",
        "min headroom",
        "slots at budget",
        "rejected",
    ];
    Some(Rendered::one("pressure.json", &fig, table(&header, rows)))
}

/// RQ2: per-minute scheduling overhead of every policy.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadTable {
    /// `(policy, seconds of decision time per simulated minute)` rows.
    pub rows: Vec<(String, f64)>,
}

/// Builds the overhead table from the engine's policy-hook timings.
#[must_use]
pub fn overhead(cmp: &ComparisonRun) -> OverheadTable {
    OverheadTable {
        rows: cmp
            .runs
            .iter()
            .map(|r| (r.policy_name.clone(), r.overhead_per_slot()))
            .collect(),
    }
}

pub(crate) fn render_overhead(cmp: &ComparisonRun) -> Option<Rendered> {
    let fig = overhead(cmp);
    let rows = fig
        .rows
        .iter()
        .map(|(name, secs)| vec![name.clone(), format!("{:.3} ms", secs * 1e3)]);
    let text = table(&["policy", "decision time / min"], rows);
    Some(Rendered::one("overhead.json", &fig, text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::default_suite;
    use crate::scenario::{run_suite_comparison, Experiment};
    use spes_core::SpesConfig;

    fn comparison() -> ComparisonRun {
        let data = Experiment::sized(250, 41).generate();
        run_suite_comparison(&data, &default_suite(&SpesConfig::default())).unwrap()
    }

    #[test]
    fn table1_counts_all_functions() {
        let cmp = comparison();
        let t = table1(&cmp).expect("default suite includes spes");
        let total: usize = t.rows.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 250);
    }

    #[test]
    fn spes_figures_degrade_gracefully_without_spes() {
        let data = Experiment::sized(60, 41).generate();
        let suite = crate::policies::suite_of(
            &["fixed-keep-alive", "no-keep-alive"],
            &SpesConfig::default(),
        )
        .unwrap();
        let cmp = crate::scenario::run_suite_comparison(&data, &suite).unwrap();
        assert!(table1(&cmp).is_none());
        assert!(fig10(&cmp).is_none());
        assert!(fig12(&cmp).is_none());
        // No SPES, no SPES gain: the headline falls back to 0, as it does
        // without a baseline, and the text says the comparison does not
        // apply.
        assert_eq!(fig8(&cmp).q3_improvement_pct, 0.0);
        let text = render_fig8(&cmp).unwrap().text;
        assert!(text.contains("does not apply"), "{text}");
        // Normalised figures fall back to the first suite member.
        let f9 = fig9(&cmp);
        let reference = f9
            .normalized_memory
            .iter()
            .find(|(n, _)| n == "fixed-keep-alive")
            .unwrap();
        assert!((reference.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig8_cdf_shapes() {
        let cmp = comparison();
        let f = fig8(&cmp);
        assert_eq!(f.cdf.len(), 6);
        for (name, values) in &f.cdf {
            assert_eq!(values.len(), f.points.len(), "{name}");
            // CDFs are monotone and end at 1.
            let mut prev = 0.0;
            for &v in values {
                assert!(v >= prev - 1e-12, "{name} CDF not monotone");
                prev = v;
            }
            assert!((values.last().unwrap() - 1.0).abs() < 1e-9, "{name}");
        }
    }

    #[test]
    fn fig8_spes_wins_q3() {
        let cmp = comparison();
        let f = fig8(&cmp);
        assert!(
            f.q3_improvement_pct > 0.0,
            "SPES should beat the best baseline at Q3-CSR: {:?}",
            f.q3_csr
        );
    }

    #[test]
    fn fig9_normalizes_to_spes() {
        let cmp = comparison();
        let f = fig9(&cmp);
        let spes = f
            .normalized_memory
            .iter()
            .find(|(n, _)| n == "spes")
            .unwrap();
        assert!((spes.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig10_and_12_cover_types() {
        let cmp = comparison();
        let f10 = fig10(&cmp).expect("default suite includes spes");
        assert!(!f10.rows.is_empty());
        for (_, csr, _) in &f10.rows {
            assert!((0.0..=1.0).contains(csr));
        }
        let f12 = fig12(&cmp).expect("default suite includes spes");
        assert!(!f12.rows.is_empty());
        for (_, ratio) in &f12.rows {
            assert!(*ratio >= 0.0);
        }
    }

    #[test]
    fn fig11_emcr_in_unit_interval() {
        let cmp = comparison();
        let f = fig11(&cmp);
        for (name, emcr) in &f.emcr {
            assert!((0.0..=1.0).contains(emcr), "{name} emcr {emcr}");
        }
    }

    #[test]
    fn timeline_is_consistent_with_run_totals() {
        // The timeline is derived from the SlotSeries observers that rode
        // along the one suite simulation — its sums must agree exactly
        // with the engine-accounted runs, with no re-simulation anywhere.
        let cmp = comparison();
        let t = timeline(&cmp, 60);
        assert_eq!(t.policies.len(), cmp.runs.len());
        for (run, policy) in cmp.runs.iter().zip(&t.policies) {
            assert_eq!(run.policy_name, policy.policy);
            let cold: u64 = policy.cold.iter().sum();
            assert_eq!(cold, run.total_cold_starts(), "{}", policy.policy);
            assert_eq!(t.start, run.start);
            for emcr in &policy.mean_emcr {
                assert!((0.0..=1.0).contains(emcr), "{}", policy.policy);
            }
        }
        // Stride-1 mean_loaded integrates back to the loaded integral.
        let fine = timeline(&cmp, 1);
        for (run, policy) in cmp.runs.iter().zip(&fine.policies) {
            let integral: f64 = policy.mean_loaded.iter().sum();
            assert!(
                (integral - run.loaded_integral as f64).abs() < 1e-9,
                "{}",
                policy.policy
            );
        }
    }

    #[test]
    fn evictions_figure_reports_every_policy() {
        let cmp = comparison();
        let f = evictions(&cmp);
        assert_eq!(f.premature_window, spes_sim::PREMATURE_RELOAD_WINDOW);
        assert_eq!(f.rows.len(), 6);
        // No-keep-alive-style churners aside, the default suite evicts
        // somewhere; every fraction is a valid probability.
        for row in &f.rows {
            assert!((0.0..=1.0).contains(&row.premature_fraction), "{row:?}");
            assert!(row.premature_reloads <= row.reloads, "{row:?}");
        }
        // Only the capacity-limited FaaSCache run can see capacity
        // evictions.
        for row in f.rows.iter().filter(|r| r.policy != "faascache") {
            assert_eq!(row.capacity_evictions, 0, "{}", row.policy);
        }
    }

    #[test]
    fn fairness_figure_is_ordered_and_bounded() {
        let cmp = comparison();
        let f = fairness(&cmp);
        assert_eq!(f.rows.len(), 6);
        for row in &f.rows {
            assert!((0.0..=1.0).contains(&row.gini_csr), "{row:?}");
            assert!(row.invoked_apps <= row.apps);
            assert!(row.worst_apps.len() <= 5);
            // Worst-first ordering.
            for pair in row.worst_apps.windows(2) {
                assert!(pair[0].burden_ratio >= pair[1].burden_ratio);
            }
            if let Some(worst) = row.worst_apps.first() {
                assert!((worst.burden_ratio - row.max_burden_ratio).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pressure_figure_tracks_capacity_limited_runs() {
        let cmp = comparison();
        let f = pressure(&cmp);
        assert_eq!(f.rows.len(), 6);
        for row in &f.rows {
            assert!(row.mean_occupancy >= 0.0);
            assert!((0.0..=1.0).contains(&row.pressure_fraction), "{row:?}");
            // No admission control in the default suite: nothing rejected.
            assert_eq!(row.rejected_loads, 0);
        }
        // FaaSCache runs under SPES's peak budget and should feel it.
        let fc = f.rows.iter().find(|r| r.policy == "faascache").unwrap();
        assert!(fc.budget.is_some());
        assert!(fc.min_headroom.is_some());
        assert!(fc.peak_occupancy <= fc.budget.unwrap());
        // Unlimited policies have no headroom to report.
        let spes = f.rows.iter().find(|r| r.policy == "spes").unwrap();
        assert_eq!(spes.budget, None);
        assert_eq!(spes.min_headroom, None);
    }

    #[test]
    fn overhead_is_nonnegative() {
        let cmp = comparison();
        let t = overhead(&cmp);
        assert_eq!(t.rows.len(), 6);
        for (_, secs) in &t.rows {
            assert!(*secs >= 0.0);
        }
    }
}
