//! Trace-characterisation figures: Figs. 3-6 and the Section III
//! empirical-analysis statistics.

use crate::figures::{paper, pct, table, Rendered};
use serde::Serialize;
use spes_core::cor;
use spes_stats::kstest;
use spes_trace::{
    synth::sample_distinct, Archetype, FunctionId, Slot, SparseSeries, SynthTrace, TriggerType,
};

/// Fig. 3: histogram of per-function total invocation counts in decade
/// buckets (the heavy tail of the workload).
#[derive(Debug, Clone, Serialize)]
pub struct Fig3 {
    /// `(bucket label, function count)` rows, e.g. `("1e2-1e3", 412)`.
    pub buckets: Vec<(String, usize)>,
    /// Functions with zero invocations.
    pub silent: usize,
}

/// Builds Fig. 3 from the trace.
#[must_use]
pub fn fig3(data: &SynthTrace) -> Fig3 {
    let mut decade_counts: Vec<usize> = vec![0; 12];
    let mut silent = 0usize;
    for series in &data.trace.series {
        let total = series.total_invocations();
        if total == 0 {
            silent += 1;
            continue;
        }
        let decade = (total as f64).log10().floor() as usize;
        decade_counts[decade.min(11)] += 1;
    }
    let buckets = decade_counts
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .map(|(d, c)| (format!("1e{d}-1e{}", d + 1), c))
        .collect();
    Fig3 { buckets, silent }
}

pub(crate) fn render_fig3(data: &SynthTrace) -> Rendered {
    let fig = fig3(data);
    let rows = fig
        .buckets
        .iter()
        .map(|(b, c)| vec![b.clone(), c.to_string()]);
    let text = format!(
        "{}silent functions: {}\n",
        table(&["invocations", "functions"], rows),
        fig.silent
    );
    Rendered::one("fig3.json", &fig, text)
}

/// Fig. 4: concept-shift examples — per-day invocation counts of shifted
/// functions, with the ground-truth shift point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Row {
    /// Function index.
    pub function: u32,
    /// Ground-truth shift slot.
    pub shift_at: Slot,
    /// Archetype labels before/after the shift.
    pub before: String,
    /// Archetype label after the shift.
    pub after: String,
    /// Invocations per day.
    pub daily: Vec<u64>,
}

/// Builds Fig. 4: up to `limit` shifted functions whose behaviour change
/// is visible in the daily counts.
#[must_use]
pub fn fig4(data: &SynthTrace, limit: usize) -> Vec<Fig4Row> {
    let days = data.trace.n_slots / spes_trace::SLOTS_PER_DAY;
    let mut rows = Vec::new();
    for (i, spec) in data.specs.iter().enumerate() {
        if spec.segments.len() != 2 {
            continue;
        }
        let series = &data.trace.series[i];
        if series.total_invocations() < 50 {
            continue;
        }
        let daily: Vec<u64> = (0..days)
            .map(|d| {
                series
                    .events_in(
                        d * spes_trace::SLOTS_PER_DAY,
                        (d + 1) * spes_trace::SLOTS_PER_DAY,
                    )
                    .iter()
                    .map(|&(_, c)| u64::from(c))
                    .sum()
            })
            .collect();
        rows.push(Fig4Row {
            function: i as u32,
            shift_at: spec.segments[1].start,
            before: spec.segments[0].archetype.label().to_owned(),
            after: spec.segments[1].archetype.label().to_owned(),
            daily,
        });
        if rows.len() >= limit {
            break;
        }
    }
    rows
}

/// Renders Fig. 4 for `repro`: up to three shifted functions.
pub(crate) fn render_fig4(data: &SynthTrace) -> Rendered {
    let rows = fig4(data, 3);
    let text = rows
        .iter()
        .map(|row| {
            format!(
                "function {} shifts {} -> {} at slot {}: daily = {:?}\n",
                row.function, row.before, row.after, row.shift_at, row.daily
            )
        })
        .collect();
    Rendered::one("fig4.json", &rows, text)
}

/// Fig. 5: trigger-type proportions of the population.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5 {
    /// `(trigger name, fraction)` rows.
    pub rows: Vec<(String, f64)>,
}

/// Builds Fig. 5 from function metadata.
#[must_use]
pub fn fig5(data: &SynthTrace) -> Fig5 {
    let n = data.trace.n_functions().max(1);
    let mut rows = Vec::new();
    for trigger in TriggerType::ALL {
        let count = data
            .trace
            .metas
            .iter()
            .filter(|m| m.trigger == trigger)
            .count();
        rows.push((trigger.name().to_owned(), count as f64 / n as f64));
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    Fig5 { rows }
}

pub(crate) fn render_fig5(data: &SynthTrace) -> Rendered {
    let fig = fig5(data);
    let rows = fig.rows.iter().map(|(t, f)| vec![t.clone(), pct(*f)]);
    let text = table(&["trigger", "fraction"], rows);
    Rendered::one("fig5.json", &fig, text)
}

/// Fig. 6: temporal locality — active periods of infrequently invoked
/// bursty functions.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// Function index.
    pub function: u32,
    /// Total invocations over the horizon.
    pub total: u64,
    /// `(start, end)` of each active period (maximal runs padded by a
    /// 30-slot cool-down).
    pub active_periods: Vec<(Slot, Slot)>,
}

/// Builds Fig. 6: up to `limit` successive-archetype functions with few
/// total invocations, showing their concentrated activity.
#[must_use]
pub fn fig6(data: &SynthTrace, limit: usize) -> Vec<Fig6Row> {
    let mut rows = Vec::new();
    for (i, spec) in data.specs.iter().enumerate() {
        if !matches!(spec.primary_archetype(), Archetype::Successive { .. }) {
            continue;
        }
        let series = &data.trace.series[i];
        let total = series.total_invocations();
        if total == 0 || series.active_slots() > 200 {
            continue; // want infrequently invoked examples
        }
        rows.push(Fig6Row {
            function: i as u32,
            total,
            active_periods: active_periods(series, 30),
        });
        if rows.len() >= limit {
            break;
        }
    }
    rows
}

/// Renders Fig. 6 for `repro`: up to five infrequent functions.
pub(crate) fn render_fig6(data: &SynthTrace) -> Rendered {
    let rows = fig6(data, 5);
    let text = rows
        .iter()
        .map(|row| {
            format!(
                "function {} ({} invocations) active periods: {:?}\n",
                row.function, row.total, row.active_periods
            )
        })
        .collect();
    Rendered::one("fig6.json", &rows, text)
}

/// Maximal invocation runs allowing gaps up to `cooldown` slots.
fn active_periods(series: &SparseSeries, cooldown: Slot) -> Vec<(Slot, Slot)> {
    let mut periods = Vec::new();
    let mut current: Option<(Slot, Slot)> = None;
    for &(slot, _) in series.events() {
        current = match current {
            None => Some((slot, slot)),
            Some((start, end)) if slot <= end + cooldown => Some((start, slot)),
            Some(done) => {
                periods.push(done);
                Some((slot, slot))
            }
        };
    }
    if let Some(done) = current {
        periods.push(done);
    }
    periods
}

/// Section III-B empirical statistics. The paper's value for each
/// statistic is in [`crate::figures::paper`].
#[derive(Debug, Clone, Serialize)]
pub struct Empirical {
    /// Fraction of timer functions (>= 10 invocations) whose inter-arrival
    /// times pass the KS periodicity test.
    pub timer_periodic_fraction: f64,
    /// Timer functions examined.
    pub timer_examined: usize,
    /// Fraction of HTTP functions whose per-slot counts pass the KS
    /// Poisson test.
    pub http_poisson_fraction: f64,
    /// HTTP functions examined.
    pub http_examined: usize,
    /// Mean COR against same-app/user candidate functions.
    pub cor_candidates: f64,
    /// Mean COR against negative samples.
    pub cor_negative: f64,
    /// Candidate / negative ratio.
    pub cor_ratio: f64,
    /// Mean COR of same-trigger candidates.
    pub cor_same_trigger: f64,
    /// Mean COR of different-trigger candidates.
    pub cor_diff_trigger: f64,
}

/// Computes the Section III statistics over the trace. `max_functions`
/// caps the COR analysis population for speed; negative sampling uses 50
/// non-overlapping functions per target, as in the paper.
#[must_use]
pub fn empirical(data: &SynthTrace, max_functions: usize) -> Empirical {
    let trace = &data.trace;
    let horizon = trace.n_slots;

    // --- Timer periodicity via KS test on inter-arrival times.
    let mut timer_examined = 0usize;
    let mut timer_periodic = 0usize;
    for f in trace.function_ids() {
        if trace.meta_of(f).trigger != TriggerType::Timer {
            continue;
        }
        let series = trace.series_of(f);
        if series.active_slots() < 10 {
            continue;
        }
        let slots: Vec<Slot> = series.events().iter().map(|&(s, _)| s).collect();
        let gaps: Vec<u32> = slots.windows(2).map(|w| w[1] - w[0]).collect();
        if gaps.len() < 9 {
            continue;
        }
        timer_examined += 1;
        // Quasi-periodic: the inter-arrival distribution is concentrated
        // on a narrow band, tested with a KS fit against the uniform law
        // over the observed P5-P95 band. A wide band is not periodic at
        // all; a strictly constant gap degenerates to a single support
        // point, which the test handles naturally.
        let lo = spes_stats::percentile(&gaps, 5.0).unwrap_or(0.0).round() as u32;
        let hi = spes_stats::percentile(&gaps, 95.0).unwrap_or(0.0).round() as u32;
        if hi >= lo && hi - lo <= 6 {
            if let Some(out) = kstest::ks_test_uniform_interarrival(&gaps, lo, hi) {
                if out.consistent_with_null(0.05) {
                    timer_periodic += 1;
                }
            }
        }
    }

    // --- HTTP Poisson arrivals via KS test on per-slot counts.
    let mut http_examined = 0usize;
    let mut http_poisson = 0usize;
    for f in trace.function_ids() {
        if trace.meta_of(f).trigger != TriggerType::Http {
            continue;
        }
        let series = trace.series_of(f);
        if series.active_slots() < 10 {
            continue;
        }
        let (Some(first), Some(last)) = (series.first_slot(), series.last_slot()) else {
            continue;
        };
        let span_end = last.min(first.saturating_add(4096)).min(horizon - 1);
        if span_end <= first {
            continue;
        }
        http_examined += 1;
        let mut counts: Vec<u32> = vec![0; (span_end - first + 1) as usize];
        for &(s, c) in series.events_in(first, span_end + 1) {
            counts[(s - first) as usize] = c;
        }
        if let Some(out) = kstest::ks_test_poisson(&counts) {
            if out.consistent_with_null(0.05) {
                http_poisson += 1;
            }
        }
    }

    // --- COR: candidates vs negative samples.
    let by_app = trace.functions_by_app();
    let by_user = trace.functions_by_user();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(data.specs.len() as u64 ^ 0xABCD);
    let mut cand_sum = 0.0;
    let mut cand_n = 0usize;
    let mut neg_sum = 0.0;
    let mut neg_n = 0usize;
    let mut same_sum = 0.0;
    let mut same_n = 0usize;
    let mut diff_sum = 0.0;
    let mut diff_n = 0usize;

    // Stride-sample the population so every region of the trace (apps are
    // laid out contiguously) contributes to the statistic.
    let stride = (trace.n_functions() / max_functions.max(1)).max(1);
    let mut examined = 0usize;
    for f in trace.function_ids().step_by(stride) {
        if examined >= max_functions {
            break;
        }
        let series = trace.series_of(f);
        if series.active_slots() < 5 {
            continue;
        }
        let meta = trace.meta_of(f);
        let mut candidates: Vec<FunctionId> = Vec::new();
        for &c in by_app.get(&meta.app).into_iter().flatten() {
            if c != f {
                candidates.push(c);
            }
        }
        for &c in by_user.get(&meta.user).into_iter().flatten() {
            if c != f && !candidates.contains(&c) {
                candidates.push(c);
            }
        }
        candidates.retain(|&c| trace.series_of(c).active_slots() > 0);
        candidates.truncate(5);
        if candidates.is_empty() {
            continue;
        }
        examined += 1;

        for &c in &candidates {
            let value = cor(series, trace.series_of(c), 0, horizon);
            cand_sum += value;
            cand_n += 1;
            if trace.meta_of(c).trigger == meta.trigger {
                same_sum += value;
                same_n += 1;
            } else {
                diff_sum += value;
                diff_n += 1;
            }
        }

        // 50 negative samples with no app/user overlap (paper protocol).
        let mut negatives = 0usize;
        for idx in sample_distinct(trace.n_functions(), 120, &mut rng) {
            if negatives >= 50 {
                break;
            }
            let g = FunctionId(idx as u32);
            let gm = trace.meta_of(g);
            if g == f || gm.app == meta.app || gm.user == meta.user {
                continue;
            }
            if trace.series_of(g).active_slots() == 0 {
                continue;
            }
            neg_sum += cor(series, trace.series_of(g), 0, horizon);
            neg_n += 1;
            negatives += 1;
        }
    }

    let cor_candidates = if cand_n == 0 {
        0.0
    } else {
        cand_sum / cand_n as f64
    };
    let cor_negative = if neg_n == 0 {
        0.0
    } else {
        neg_sum / neg_n as f64
    };
    Empirical {
        timer_periodic_fraction: fraction(timer_periodic, timer_examined),
        timer_examined,
        http_poisson_fraction: fraction(http_poisson, http_examined),
        http_examined,
        cor_candidates,
        cor_negative,
        cor_ratio: if cor_negative > 0.0 {
            cor_candidates / cor_negative
        } else {
            f64::INFINITY
        },
        cor_same_trigger: if same_n == 0 {
            0.0
        } else {
            same_sum / same_n as f64
        },
        cor_diff_trigger: if diff_n == 0 {
            0.0
        } else {
            diff_sum / diff_n as f64
        },
    }
}

/// Renders the Section III statistics for `repro`, each next to the
/// paper's value.
pub(crate) fn render_empirical(data: &SynthTrace) -> Rendered {
    let e = empirical(data, 300);
    let text = format!(
        "timer functions (quasi-)periodic: {} of {} examined (paper: {})\n\
         HTTP functions Poisson: {} of {} examined (paper: {})\n\
         mean COR candidates vs negatives: {:.4} vs {:.4} ({:.1}x; paper: {})\n\
         same-trigger vs different-trigger candidate COR: {:.4} vs {:.4} (paper: {})\n",
        pct(e.timer_periodic_fraction),
        e.timer_examined,
        paper::TIMER_PERIODIC,
        pct(e.http_poisson_fraction),
        e.http_examined,
        paper::HTTP_POISSON,
        e.cor_candidates,
        e.cor_negative,
        e.cor_ratio,
        paper::COR_CANDIDATES_VS_NEGATIVES,
        e.cor_same_trigger,
        e.cor_diff_trigger,
        paper::COR_SAME_VS_DIFF_TRIGGER,
    );
    Rendered::one("empirical.json", &e, text)
}

fn fraction(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

use rand::SeedableRng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Experiment;

    fn data() -> SynthTrace {
        Experiment::sized(400, 21).generate()
    }

    #[test]
    fn fig3_buckets_cover_population() {
        let d = data();
        let f = fig3(&d);
        let total: usize = f.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total + f.silent, d.trace.n_functions());
        assert!(f.buckets.len() >= 3, "heavy tail should span decades");
    }

    #[test]
    fn fig4_rows_have_shift_metadata() {
        let d = data();
        let rows = fig4(&d, 3);
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(row.shift_at > 0);
            assert_eq!(row.daily.len() as u32, d.trace.n_slots / 1440);
        }
    }

    #[test]
    fn fig5_fractions_sum_to_one() {
        let d = data();
        let f = fig5(&d);
        let total: f64 = f.rows.iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // http should dominate (41% of the mix).
        assert_eq!(f.rows[0].0, "http");
    }

    #[test]
    fn fig6_periods_are_concentrated() {
        let d = data();
        let rows = fig6(&d, 5);
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(!row.active_periods.is_empty());
            let covered: u64 = row
                .active_periods
                .iter()
                .map(|&(s, e)| u64::from(e - s + 1))
                .sum();
            // Activity concentrated in a small share of the horizon.
            assert!(covered < u64::from(d.trace.n_slots) / 4);
        }
    }

    #[test]
    fn empirical_shape_matches_paper() {
        let d = Experiment::sized(1200, 33).generate();
        let e = empirical(&d, 200);
        assert!(e.timer_examined > 20);
        // Most timers are (quasi-)periodic; the paper reports 68%.
        assert!(
            e.timer_periodic_fraction > 0.4,
            "timer periodic {}",
            e.timer_periodic_fraction
        );
        // Candidates must correlate far above negatives (paper: 4.6x).
        assert!(
            e.cor_candidates > 2.0 * e.cor_negative,
            "cand {} vs neg {}",
            e.cor_candidates,
            e.cor_negative
        );
    }

    #[test]
    fn active_periods_merges_within_cooldown() {
        let s = SparseSeries::from_pairs(vec![(0, 1), (10, 1), (100, 1)]);
        let p = active_periods(&s, 30);
        assert_eq!(p, vec![(0, 10), (100, 100)]);
    }
}
