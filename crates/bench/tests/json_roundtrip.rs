//! The repro/figure JSON artifacts round-trip through the serde shims:
//! what `repro` writes, `serde_json::from_str` can read back — either as
//! a typed document (for types deriving `Deserialize`) or as a generic
//! `Value` whose re-rendering is byte-identical.

use serde_json::Value;
use spes_bench::figures::FIGURES;
use spes_bench::figures_main::{self, Timeline};
use spes_bench::perf::{EngineBenchReport, EngineBenchRow};
use spes_bench::policies::default_suite;
use spes_bench::scenario::{run_suite_comparison, Experiment};
use spes_core::SpesConfig;

#[test]
fn figure_json_round_trips_as_values() {
    let data = Experiment::scenario("quick", 60, 11).unwrap().generate();
    let cfg = SpesConfig::default();
    let cmp = run_suite_comparison(&data, &default_suite(&cfg)).unwrap();

    // Every document of every registered figure, as `repro` writes it,
    // rendered and re-parsed: the parse must succeed and re-rendering
    // must be byte-identical (the Value model keeps numbers as source
    // text, so this is exact).
    let mut files = Vec::new();
    for fig in &FIGURES {
        let rendered = fig.render(&data, &cfg, Some(&cmp)).expect("spes in suite");
        for (file, document) in rendered.documents {
            let text = serde_json::to_string_pretty(&document).unwrap();
            let value: Value = serde_json::from_str(&text).expect("figure JSON parses");
            let rendered = serde_json::to_string_pretty(&value).unwrap();
            assert_eq!(rendered, text, "{file}: re-rendered JSON drifted");
            files.push(file);
        }
    }
    // No two documents share a file, or one would overwrite the other.
    let written = files.len();
    files.sort_unstable();
    files.dedup();
    assert_eq!(files.len(), written, "a file name repeats: {files:?}");
}

#[test]
fn timeline_round_trips_typed() {
    let data = Experiment::scenario("quick", 50, 5).unwrap().generate();
    let cmp = run_suite_comparison(&data, &default_suite(&SpesConfig::default())).unwrap();
    let timeline = figures_main::timeline(&cmp, 120);
    let text = serde_json::to_string_pretty(&timeline).unwrap();
    let back: Timeline = serde_json::from_str(&text).expect("typed timeline parses");
    assert_eq!(back, timeline);
}

#[test]
fn bench_report_round_trips_typed() {
    let report = EngineBenchReport {
        rows: vec![
            EngineBenchRow {
                scenario: "paper-default".into(),
                policy: "keep-forever".into(),
                n_functions: 800,
                slots: 20_160,
                iters: 5,
                secs: 0.125,
                secs_min: 0.115,
                secs_max: 0.145,
                secs_std: 0.01,
                slots_per_sec: 161_280.0,
            },
            EngineBenchRow {
                scenario: "chain-heavy".into(),
                policy: "no-keep-alive".into(),
                n_functions: 800,
                slots: 20_160,
                iters: 5,
                secs: 0.5,
                secs_min: 0.4,
                secs_max: 0.6,
                secs_std: 0.07,
                slots_per_sec: 40_320.0,
            },
        ],
    };
    let text = serde_json::to_string_pretty(&report).unwrap();
    let back: EngineBenchReport = serde_json::from_str(&text).unwrap();
    assert_eq!(back, report);
}
