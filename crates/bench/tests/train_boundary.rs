//! The structural train/eval boundary: a trace generated with any split
//! carries its own `train_end`, the runners fit and measure on exactly
//! that boundary, and "unseen" functions never leak into training —
//! including for non-default splits, the case that used to silently leak
//! when the generator's `train_days` and the runners' hard-coded cutoff
//! disagreed.

use spes_bench::policies::default_suite;
use spes_bench::scenario::run_suite_comparison;
use spes_core::SpesConfig;
use spes_trace::{synth, FunctionId, SynthConfig, SLOTS_PER_DAY};

/// A 10-day trace with an 8-day training prefix: neither the paper's
/// 14/12 split nor the quick 7/6 split.
fn non_default_split(seed: u64) -> SynthConfig {
    SynthConfig {
        n_functions: 250,
        days: 10,
        train_days: 8,
        seed,
        // Enough unseen functions that a leak would be visible.
        unseen_fraction: 0.08,
        ..SynthConfig::default()
    }
}

#[test]
fn non_default_split_measures_on_its_own_boundary() {
    let data = synth::generate(&non_default_split(41));
    let expected = 8 * SLOTS_PER_DAY;
    assert_eq!(data.train_end, expected);

    let cmp = run_suite_comparison(&data, &default_suite(&SpesConfig::default())).unwrap();
    for run in &cmp.runs {
        assert_eq!(
            run.start, expected,
            "{} measured from {} instead of the trace boundary {expected}",
            run.policy_name, run.start
        );
        assert_eq!(run.end, data.trace.n_slots, "{}", run.policy_name);
    }
}

#[test]
fn unseen_functions_never_appear_before_the_boundary() {
    let data = synth::generate(&non_default_split(42));
    let mut n_unseen = 0;
    for (i, spec) in data.specs.iter().enumerate() {
        if !spec.unseen {
            continue;
        }
        n_unseen += 1;
        let before = data.trace.series[i].events_in(0, data.train_end);
        assert!(
            before.is_empty(),
            "unseen function {i} invoked {} times before the 8-day boundary",
            before.len()
        );
    }
    assert!(n_unseen >= 5, "only {n_unseen} unseen functions generated");
}

/// The leak scenario end to end: with the boundary carried by the trace,
/// SPES's offline fit cannot have seen any unseen function, so at fit
/// time — before the simulation's online paths get to act — every unseen
/// function must be "unknown". A fit that leaked post-boundary
/// invocations into training would categorise them from that history
/// (regular/dense/pulsed/...). Online re-categorisation during the
/// simulation (Section IV-C1) may later relabel them from fresh WTs;
/// that is behaviour, not leakage, so the check is on the freshly fitted
/// policy, not on post-run labels.
#[test]
fn unseen_functions_are_invisible_to_the_offline_fit() {
    let data = synth::generate(&non_default_split(43));
    let spes = spes_core::SpesPolicy::fit(&data.trace, 0, data.train_end, SpesConfig::default());
    let mut checked = 0;
    for (i, spec) in data.specs.iter().enumerate() {
        if !spec.unseen {
            continue;
        }
        let series = data.trace.series_of(FunctionId(i as u32));
        assert!(series.events_in(0, data.train_end).is_empty());
        let label = spes.type_of(FunctionId(i as u32)).label();
        assert_eq!(
            label, "unknown",
            "unseen function {i} got offline label {label:?} — \
             the fit saw data past the boundary"
        );
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} unseen functions checked");
}
