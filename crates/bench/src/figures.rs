//! The figure registry: every table and figure of the paper's evaluation
//! that `repro` regenerates, in presentation order, with what each one
//! reads and how it renders. `repro --fig`, `--list-figs` and `--help`
//! read [`FIGURES`]; adding a figure is one row.

use self::Source::{Spes, Suite, Trace};
use crate::figures_main::{
    render_evictions, render_fairness, render_fig10, render_fig11, render_fig12, render_fig8,
    render_fig9, render_overhead, render_pressure, render_series, render_table1,
};
use crate::figures_sweep::{render_fig13, render_fig14, render_fig15};
use crate::figures_trace::{render_empirical, render_fig3, render_fig4, render_fig5, render_fig6};
use crate::scenario::ComparisonRun;
use serde::{Serialize, Value};
use spes_core::SpesConfig;
use spes_sim::text_table;
use spes_trace::SynthTrace;

/// The paper's reference values, as `repro` prints them next to the
/// measured ones.
pub mod paper {
    /// Section III: timer functions that are (quasi-)periodic.
    pub const TIMER_PERIODIC: &str = "68.12%";
    /// Section III: HTTP functions whose arrivals are Poisson.
    pub const HTTP_POISSON: &str = "45.02%";
    /// Section III: mean COR of candidates vs negative samples.
    pub const COR_CANDIDATES_VS_NEGATIVES: &str = "0.2312 vs 0.0504, 4.6x";
    /// Section III: mean COR of same- vs different-trigger candidates.
    pub const COR_SAME_VS_DIFF_TRIGGER: &str = "0.2710 vs 0.1307";
    /// Fig. 8: SPES's Q3-CSR improvement over the best baseline (Defuse).
    pub const Q3_CSR_GAIN: &str = "49.77%";
}

/// The `--fig` id that selects every row, and its summary.
const ALL: (&str, &str) = ("all", "every table and figure below (the default)");

/// A rendered figure.
#[derive(Debug)]
pub struct Rendered {
    /// The text block printed under the figure's heading.
    pub text: String,
    /// `(file name, document)` pairs written to the output directory.
    pub documents: Vec<(&'static str, Value)>,
}

impl Rendered {
    /// A figure with one JSON document.
    pub(crate) fn one<T: Serialize>(file: &'static str, figure: &T, text: String) -> Self {
        Self {
            text,
            documents: vec![(file, figure.to_value())],
        }
    }
}

/// What a figure reads, and the function that renders it from that.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// The trace alone (Figs. 3-6, Section III).
    Trace(fn(&SynthTrace) -> Rendered),
    /// The trace plus the SPES configuration it sweeps or ablates
    /// (Figs. 13-15).
    Spes(fn(&SynthTrace, &SpesConfig) -> Rendered),
    /// The one suite run; `None` when the figure describes SPES and the
    /// suite has no `spes`.
    Suite(fn(&ComparisonRun) -> Option<Rendered>),
}

/// One row of the figure registry.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The `--fig` id.
    pub id: &'static str,
    /// One-line summary, as `--list-figs` prints it.
    pub summary: &'static str,
    /// What the figure reads and how it renders.
    pub source: Source,
}

impl Figure {
    /// Whether rendering needs the policy-suite run.
    #[must_use]
    pub fn needs_suite(&self) -> bool {
        matches!(self.source, Source::Suite(_))
    }

    /// The heading `repro` prints above the figure: "Fig. N" for the
    /// paper's numbered figures, the id otherwise.
    #[must_use]
    pub fn heading(&self) -> String {
        if self.id.starts_with(|c: char| c.is_ascii_digit()) {
            format!("Fig. {}: {}", self.id, self.summary)
        } else {
            format!("{}: {}", self.id, self.summary)
        }
    }

    /// Renders the figure. `None` when it reads the suite run and `cmp`
    /// is absent, or the suite has no `spes` and the figure describes it.
    #[must_use]
    pub fn render(
        &self,
        data: &SynthTrace,
        spes_cfg: &SpesConfig,
        cmp: Option<&ComparisonRun>,
    ) -> Option<Rendered> {
        match self.source {
            Source::Trace(render) => Some(render(data)),
            Source::Spes(render) => Some(render(data, spes_cfg)),
            Source::Suite(render) => cmp.and_then(render),
        }
    }
}

const fn row(id: &'static str, summary: &'static str, source: Source) -> Figure {
    Figure {
        id,
        summary,
        source,
    }
}

/// Every figure `repro` regenerates, in presentation order.
#[rustfmt::skip] // one line per figure
pub const FIGURES: [Figure; 19] = [
    row("3", "invocation-count distribution (heavy tail)", Trace(render_fig3)),
    row("4", "concept-shift examples (daily invocation counts)", Trace(render_fig4)),
    row("5", "trigger-type proportions", Trace(render_fig5)),
    row("6", "temporal locality of infrequent functions", Trace(render_fig6)),
    row("empirical", "Section III empirical statistics", Trace(render_empirical)),
    row("table1", "Table I census: functions per SPES type", Suite(render_table1)),
    row("8", "cold-start-rate CDF and headline percentiles", Suite(render_fig8)),
    row("9", "normalised memory usage / always-cold functions", Suite(render_fig9)),
    row("10", "mean CSR per SPES function type", Suite(render_fig10)),
    row("11", "normalised WMT / EMCR", Suite(render_fig11)),
    row("12", "WMT / invocations ratio per SPES type", Suite(render_fig12)),
    row("overhead", "RQ2 scheduling overhead per simulated minute", Suite(render_overhead)),
    row("series", "hourly memory / cold-start / EMCR curves", Suite(render_series)),
    row("evictions", "eviction forensics (premature reloads)", Suite(render_evictions)),
    row("fairness", "per-app cold-start burden vs. invocation share", Suite(render_fairness)),
    row("pressure", "pool occupancy vs. budget", Suite(render_pressure)),
    row("13", "resource/latency trade-off sweeps", Spes(render_fig13)),
    row("14", "correlation-strategy ablation", Spes(render_fig14)),
    row("15", "concept-shift-strategy ablation", Spes(render_fig15)),
];

/// The rows `--fig id` selects: every row for `all`, else the one row
/// with that id.
///
/// # Errors
/// Names every registered id when `id` is unknown.
pub fn select(id: &str) -> Result<Vec<&'static Figure>, String> {
    let picked: Vec<_> = FIGURES
        .iter()
        .filter(|f| id == ALL.0 || f.id == id)
        .collect();
    if picked.is_empty() {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        return Err(format!(
            "unknown figure {id:?}; registered: {}, {}",
            ALL.0,
            ids.join(", ")
        ));
    }
    Ok(picked)
}

/// The registry, one `id  summary` line per `--fig` id, as `--list-figs`
/// and `--help` print it.
#[must_use]
pub fn listing() -> String {
    std::iter::once(ALL)
        .chain(FIGURES.iter().map(|f| (f.id, f.summary)))
        .map(|(id, summary)| format!("  {id:<11} {summary}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Formats a fraction as a percentage with two decimals.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// A text table followed by a blank line, as `repro` prints every table.
pub(crate) fn table(header: &[&str], rows: impl Iterator<Item = Vec<String>>) -> String {
    format!("{}\n", text_table(header, &rows.collect::<Vec<_>>()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Experiment;

    #[test]
    fn ids_are_unique_and_all_selects_every_row() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        ids.push(ALL.0);
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total, "duplicate --fig id");
        let all = select("all").unwrap();
        assert_eq!(all.len(), FIGURES.len());
        for (picked, fig) in all.iter().zip(&FIGURES) {
            assert_eq!(picked.id, fig.id);
        }
        for fig in &FIGURES {
            assert_eq!(select(fig.id).unwrap()[0].id, fig.id);
        }
        let err = select("7").unwrap_err();
        assert!(err.contains("registered: all, 3, 4"), "{err}");
    }

    #[test]
    fn figures_without_the_suite_render_without_a_comparison_run() {
        let data = Experiment::scenario("quick", 60, 11).unwrap().generate();
        let cfg = SpesConfig::default();
        for fig in FIGURES.iter().filter(|f| !f.needs_suite()) {
            let rendered = fig.render(&data, &cfg, None).expect(fig.id);
            assert!(!rendered.documents.is_empty(), "{}", fig.id);
        }
    }
}
