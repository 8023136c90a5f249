//! Report helpers: cross-policy comparisons and per-category breakdowns.
//!
//! The paper presents its results normalised against SPES (memory usage,
//! WMT; [`normalized`]) and broken down by SPES function type (Figs. 10
//! and 12; [`per_category_stats`]). These helpers turn raw
//! [`RunResult`]s into those aggregates.

use crate::metrics::RunResult;
use std::collections::BTreeMap;

/// `metric` of every run normalised to the run of the `reference`
/// policy (the paper normalises to SPES): `(policy, value / reference
/// value)` rows aligned with `runs`. Every row is 0 when the reference
/// is absent or its value is 0.
#[must_use]
pub fn normalized<F: Fn(&RunResult) -> f64>(
    runs: &[RunResult],
    reference: &str,
    metric: F,
) -> Vec<(String, f64)> {
    let ref_value = runs
        .iter()
        .find(|r| r.policy_name == reference)
        .map_or(0.0, &metric);
    runs.iter()
        .map(|r| {
            let normalised = if ref_value == 0.0 {
                0.0
            } else {
                metric(r) / ref_value
            };
            (r.policy_name.clone(), normalised)
        })
        .collect()
}

/// Aggregate metrics of one function category (Figs. 10 and 12).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CategoryStats {
    /// Number of invoked functions in the category.
    pub functions: usize,
    /// Mean function-wise CSR.
    pub mean_csr: f64,
    /// Mean WMT / invocations ratio.
    pub mean_wmt_ratio: f64,
    /// Total invocations of the category.
    pub invocations: u64,
    /// Total cold starts.
    pub cold_starts: u64,
    /// Total WMT.
    pub wmt: u64,
}

/// Breaks a run down by category, using `label_of(function_index)`.
///
/// Functions that were never invoked in the window are skipped (they have
/// no CSR), matching the paper's function-wise metrics; their WMT still
/// counts into the per-category totals via invoked siblings only.
pub fn per_category_stats<F: Fn(usize) -> Option<&'static str>>(
    run: &RunResult,
    label_of: F,
) -> BTreeMap<&'static str, CategoryStats> {
    let mut map: BTreeMap<&'static str, (CategoryStats, f64, f64)> = BTreeMap::new();
    for f in 0..run.invocations.len() {
        let Some(label) = label_of(f) else { continue };
        let Some(csr) = run.csr_of(f) else { continue };
        let ratio = run.wmt_ratio_of(f).unwrap_or(0.0);
        let entry = map.entry(label).or_default();
        entry.0.functions += 1;
        entry.0.invocations += run.invocations[f];
        entry.0.cold_starts += run.cold_starts[f];
        entry.0.wmt += run.wmt[f];
        entry.1 += csr;
        entry.2 += ratio;
    }
    map.into_iter()
        .map(|(label, (mut stats, csr_sum, ratio_sum))| {
            if stats.functions > 0 {
                stats.mean_csr = csr_sum / stats.functions as f64;
                stats.mean_wmt_ratio = ratio_sum / stats.functions as f64;
            }
            (label, stats)
        })
        .collect()
}

/// Renders a simple fixed-width text table: a header plus rows of cells.
/// Used by the `repro` binary and examples for figure/table output.
#[must_use]
pub fn text_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let n_cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(n_cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<width$}", width = widths[i]));
        }
        line.trim_end().to_owned()
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (n_cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spes_trace::Slot;

    fn run(name: &str, invocations: Vec<u64>, cold: Vec<u64>, wmt: Vec<u64>) -> RunResult {
        let n = invocations.len();
        RunResult {
            policy_name: name.into(),
            start: 0,
            end: 10 as Slot,
            invocations,
            cold_starts: cold,
            wmt,
            loaded_integral: 20,
            emcr_sum: 0.0,
            emcr_slots: 0,
            overhead_secs: 0.0,
            peak_loaded: n,
        }
    }

    #[test]
    fn normalized_comparison_reference_is_one() {
        let runs = vec![
            run("spes", vec![10], vec![1], vec![4]),
            run("fixed", vec![10], vec![2], vec![8]),
        ];
        let rows = normalized(&runs, "spes", |r| r.total_wmt() as f64);
        assert_eq!(rows, [("spes".to_owned(), 1.0), ("fixed".to_owned(), 2.0)]);
    }

    #[test]
    fn normalized_comparison_missing_reference() {
        let runs = vec![run("a", vec![1], vec![0], vec![4])];
        let rows = normalized(&runs, "b", |r| r.total_wmt() as f64);
        assert_eq!(rows, [("a".to_owned(), 0.0)]);
    }

    #[test]
    fn per_category_aggregates() {
        let r = run(
            "spes",
            vec![10, 5, 0, 2],
            vec![1, 5, 0, 1],
            vec![10, 0, 3, 4],
        );
        let labels = ["regular", "dense", "regular", "dense"];
        let stats = per_category_stats(&r, |f| Some(labels[f]));
        // Function 2 is never invoked -> excluded.
        let regular = &stats["regular"];
        assert_eq!(regular.functions, 1);
        assert!((regular.mean_csr - 0.1).abs() < 1e-12);
        let dense = &stats["dense"];
        assert_eq!(dense.functions, 2);
        assert!((dense.mean_csr - (1.0 + 0.5) / 2.0).abs() < 1e-12);
        assert!((dense.mean_wmt_ratio - (0.0 + 2.0) / 2.0).abs() < 1e-12);
        assert_eq!(dense.invocations, 7);
    }

    #[test]
    fn per_category_skips_unlabelled() {
        let r = run("spes", vec![1, 1], vec![1, 0], vec![0, 0]);
        let stats = per_category_stats(&r, |f| if f == 0 { Some("x") } else { None });
        assert_eq!(stats.len(), 1);
        assert_eq!(stats["x"].functions, 1);
    }

    #[test]
    fn text_table_renders() {
        let t = text_table(
            &["policy", "csr"],
            &[
                vec!["spes".into(), "0.108".into()],
                vec!["defuse".into(), "0.215".into()],
            ],
        );
        assert!(t.contains("policy"));
        assert!(t.contains("spes"));
        assert!(t.lines().count() == 4);
    }
}
