//! The ratchet: per-lint, per-file finding counts committed to
//! `LINT_baseline.json`, compared on every gate run.
//!
//! The delta table is printed either way, and the gate fails on any
//! **increase** over a baseline row and on any **stale** row — a row
//! whose count dropped or whose file no longer has findings. Staleness
//! failing is what makes the ratchet one-way: removing an unwrap forces
//! `spes-lint --update-baseline` in the same change, so the committed
//! floor only ever moves down.
//!
//! Zero-tolerance lints (D001–D003, S001, L000) never appear in the
//! baseline; any unallowed finding fails the gate directly.
//!
//! This is not the bench gates' verdict
//! (`spes_bench::perf::gate_against_baseline`), and the two stay
//! separate: counts compare exactly where the bench gate allows a
//! tolerance, a baseline row that vanished fails where the bench gate
//! ignores rows it did not measure, and a new (lint, file) cell is an
//! increase where the bench gate reports a missing baseline.

use crate::rules::{is_ratcheted, Finding};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One committed (lint, file) count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineRow {
    /// Lint code (only ratcheted lints are baselined).
    pub lint: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Unallowed findings of `lint` in `file` when the baseline was
    /// regenerated.
    pub count: usize,
}

/// The committed `LINT_baseline.json` document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintBaseline {
    /// Schema version, for forward evolution.
    pub version: u32,
    /// Rows sorted by (lint, file) so regeneration is byte-stable.
    pub rows: Vec<BaselineRow>,
}

/// Verdict for one (lint, file) cell of the ratchet table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatchetStatus {
    /// Current count equals the baseline.
    Ok,
    /// Current count exceeds the baseline (or a new file gained
    /// findings): the lint regressed.
    Regression,
    /// Current count fell below the baseline (possibly to zero): the
    /// row is stale — regenerate the baseline to lock in the
    /// improvement.
    Stale,
}

impl std::fmt::Display for RatchetStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Ok => "ok",
            Self::Regression => "REGRESSION",
            Self::Stale => "STALE BASELINE",
        })
    }
}

/// One row of the gate's delta table.
#[derive(Debug, Clone)]
pub struct RatchetRow {
    /// Lint code.
    pub lint: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Committed count (`None` when the file is new to the baseline).
    pub baseline: Option<usize>,
    /// Freshly measured unallowed findings.
    pub current: usize,
    /// The cell's verdict.
    pub status: RatchetStatus,
}

/// The whole gate outcome: ratchet rows plus the zero-tolerance
/// findings that fail unconditionally.
#[derive(Debug, Clone)]
pub struct LintGateReport {
    /// One row per (lint, file) cell present in the baseline or the
    /// current scan, sorted by (lint, file).
    pub rows: Vec<RatchetRow>,
    /// Unallowed findings of zero-tolerance lints.
    pub zero_tolerance: Vec<Finding>,
}

impl LintGateReport {
    /// Whether the gate passes: no zero-tolerance finding, no ratchet
    /// regression, no stale baseline row.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.zero_tolerance.is_empty() && self.rows.iter().all(|r| r.status == RatchetStatus::Ok)
    }

    /// The ratchet rows that keep [`LintGateReport::passed`] false.
    #[must_use]
    pub fn failures(&self) -> Vec<&RatchetRow> {
        self.rows
            .iter()
            .filter(|r| r.status != RatchetStatus::Ok)
            .collect()
    }
}

/// Current unallowed counts per ratcheted (lint, file) cell.
fn ratchet_counts(findings: &[Finding]) -> BTreeMap<(String, String), usize> {
    let mut counts = BTreeMap::new();
    for f in findings {
        if is_ratcheted(f.code) && !f.allowed {
            *counts
                .entry((f.code.to_owned(), f.file.clone()))
                .or_insert(0) += 1;
        }
    }
    counts
}

/// Builds a fresh baseline from a scan: the document
/// `--update-baseline` writes.
#[must_use]
pub fn update_baseline(findings: &[Finding]) -> LintBaseline {
    LintBaseline {
        version: 1,
        rows: ratchet_counts(findings)
            .into_iter()
            .map(|((lint, file), count)| BaselineRow { lint, file, count })
            .collect(),
    }
}

/// Compares a fresh scan against the committed baseline cell by cell.
#[must_use]
pub fn gate(findings: &[Finding], baseline: &LintBaseline) -> LintGateReport {
    let current = ratchet_counts(findings);
    let mut cells: BTreeMap<(String, String), (Option<usize>, usize)> = BTreeMap::new();
    for row in &baseline.rows {
        cells.insert((row.lint.clone(), row.file.clone()), (Some(row.count), 0));
    }
    for (key, &count) in &current {
        cells.entry(key.clone()).or_insert((None, 0)).1 = count;
    }
    let rows = cells
        .into_iter()
        .map(|((lint, file), (base, cur))| {
            let status = match base {
                Some(b) if cur == b => RatchetStatus::Ok,
                Some(b) if cur > b => RatchetStatus::Regression,
                Some(_) => RatchetStatus::Stale,
                None => RatchetStatus::Regression,
            };
            RatchetRow {
                lint,
                file,
                baseline: base,
                current: cur,
                status,
            }
        })
        .collect();
    let zero_tolerance = findings
        .iter()
        .filter(|f| !is_ratcheted(f.code) && !f.allowed)
        .cloned()
        .collect();
    LintGateReport {
        rows,
        zero_tolerance,
    }
}

/// Renders the delta table, mirroring the bench gates' always-printed
/// format.
#[must_use]
pub fn render_table(report: &LintGateReport) -> String {
    let mut rows: Vec<[String; 5]> = vec![[
        "lint".to_owned(),
        "file".to_owned(),
        "baseline".to_owned(),
        "current".to_owned(),
        "status".to_owned(),
    ]];
    for r in &report.rows {
        rows.push([
            r.lint.clone(),
            r.file.clone(),
            r.baseline.map_or_else(|| "-".to_owned(), |b| b.to_string()),
            r.current.to_string(),
            r.status.to_string(),
        ]);
    }
    let mut widths = [0usize; 5];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in &rows {
        for (i, (w, cell)) in widths.iter().zip(row.iter()).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            out.extend(std::iter::repeat_n(' ', w - cell.len()));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(code: &'static str, file: &str, line: u32, allowed: bool) -> Finding {
        Finding {
            code,
            file: file.to_owned(),
            line,
            message: String::new(),
            allowed,
        }
    }

    #[test]
    fn equal_counts_pass() {
        let findings = vec![
            finding("P001", "crates/core/src/a.rs", 3, false),
            finding("P001", "crates/core/src/a.rs", 9, false),
        ];
        let base = update_baseline(&findings);
        assert!(gate(&findings, &base).passed());
    }

    #[test]
    fn an_increase_is_a_regression() {
        let old = vec![finding("P001", "crates/core/src/a.rs", 3, false)];
        let base = update_baseline(&old);
        let new = vec![
            finding("P001", "crates/core/src/a.rs", 3, false),
            finding("P001", "crates/core/src/a.rs", 4, false),
        ];
        let report = gate(&new, &base);
        assert!(!report.passed());
        assert_eq!(report.failures()[0].status, RatchetStatus::Regression);
    }

    #[test]
    fn a_new_file_with_findings_is_a_regression() {
        let base = update_baseline(&[]);
        let new = vec![finding("P001", "crates/core/src/b.rs", 1, false)];
        let report = gate(&new, &base);
        assert_eq!(report.failures()[0].status, RatchetStatus::Regression);
        assert_eq!(report.failures()[0].baseline, None);
    }

    #[test]
    fn an_improvement_is_a_stale_row_until_regenerated() {
        let old = vec![
            finding("P001", "crates/core/src/a.rs", 3, false),
            finding("P001", "crates/core/src/a.rs", 9, false),
        ];
        let base = update_baseline(&old);
        let new = vec![finding("P001", "crates/core/src/a.rs", 3, false)];
        let report = gate(&new, &base);
        assert_eq!(report.failures()[0].status, RatchetStatus::Stale);
        // Regenerating locks the improvement in.
        assert!(gate(&new, &update_baseline(&new)).passed());
    }

    #[test]
    fn a_vanished_file_is_a_stale_row() {
        let old = vec![finding("P001", "crates/core/src/gone.rs", 1, false)];
        let base = update_baseline(&old);
        let report = gate(&[], &base);
        assert_eq!(report.failures()[0].status, RatchetStatus::Stale);
        assert_eq!(report.failures()[0].current, 0);
    }

    #[test]
    fn allowed_findings_do_not_count() {
        let findings = vec![finding("P001", "crates/core/src/a.rs", 3, true)];
        let base = update_baseline(&findings);
        assert!(base.rows.is_empty());
        assert!(gate(&findings, &base).passed());
    }

    #[test]
    fn zero_tolerance_findings_fail_regardless_of_baseline() {
        let findings = vec![finding("D001", "crates/core/src/a.rs", 3, false)];
        let base = update_baseline(&findings);
        assert!(base.rows.is_empty(), "D001 is never baselined");
        assert!(!gate(&findings, &base).passed());
    }

    #[test]
    fn allowed_zero_tolerance_findings_pass() {
        let findings = vec![finding("D001", "crates/core/src/a.rs", 3, true)];
        assert!(gate(&findings, &update_baseline(&[])).passed());
    }

    #[test]
    fn baseline_rows_are_sorted_for_stable_serialisation() {
        let findings = vec![
            finding("P001", "crates/sim/src/b.rs", 1, false),
            finding("P001", "crates/core/src/a.rs", 1, false),
        ];
        let base = update_baseline(&findings);
        assert_eq!(base.rows[0].file, "crates/core/src/a.rs");
        assert_eq!(base.rows[1].file, "crates/sim/src/b.rs");
    }
}
