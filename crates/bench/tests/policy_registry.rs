//! Registry-level guarantees: unique names, every registered policy runs
//! green, unknown names are rejected, and the suite-based comparison
//! runner reproduces the pre-registry six-way comparison exactly.

use spes_bench::policies;
use spes_bench::scenario::{run_suite_comparison, Experiment, POLICY_ORDER};
use spes_core::SpesConfig;
use spes_sim::suite::run_suite;

#[test]
fn registry_names_are_unique() {
    let names = policies::policy_names();
    for (i, name) in names.iter().enumerate() {
        assert!(
            !names[..i].contains(name),
            "duplicate registry name {name:?}"
        );
    }
}

/// Every registered policy — including the oracle and the trivial
/// bounds — builds and completes a run on the quick scenario. The
/// default-suite members carry FaaSCache's capacity dependency, so the
/// whole registry is a valid suite in one go.
#[test]
fn every_registered_policy_runs_green_on_the_quick_scenario() {
    let names = policies::policy_names();
    let suite = policies::suite_of(&names, &SpesConfig::default()).unwrap();
    let data = Experiment::scenario("quick", 80, 4).unwrap().generate();
    let out = run_suite(&data, &suite).unwrap();
    assert_eq!(out.len(), names.len());

    let total = out[0].run.total_invocations();
    assert!(total > 0, "quick scenario generated no invocations");
    for entry in &out {
        assert_eq!(
            entry.run.total_invocations(),
            total,
            "{} saw a different workload",
            entry.name
        );
    }
    // The brackets bracket: the clairvoyant oracle and the keep-forever
    // bound never cold-start more than the always-evict bound.
    let cold_starts = |name: &str| {
        let entry = out.iter().find(|e| e.name == name).unwrap();
        entry.run.total_cold_starts()
    };
    assert_eq!(cold_starts("oracle"), 0);
    assert!(cold_starts("keep-forever") <= cold_starts("no-keep-alive"));
}

#[test]
fn unknown_policy_names_are_rejected() {
    let cfg = SpesConfig::default();
    assert!(policies::spec_of("nope", &cfg).is_none());
    let err = policies::suite_of(&["spes", "nope"], &cfg).unwrap_err();
    assert_eq!(err, policies::UnknownPolicy("nope".to_owned()));
}

/// The pinned comparison: the default suite on `Experiment::sized(120, 7)`
/// produces exactly these per-policy metrics. Refactors must not move a
/// single count — the comparison is the paper's headline artefact.
///
/// Re-pinned when S2 adjusting stopped chasing chain echoes on Regular
/// functions: spes improved to 597 cold starts / Q3-CSR 0.2414 (from
/// 604 / 0.25), and faascache follows because its capacity budget is
/// donated from the SPES peak (29 -> 30). Every other policy is
/// untouched by the SPES-internal change, which this pin also proves.
const PINNED: [(&str, u64, u64, u64, usize, u64, f64); 6] = [
    // (policy, invocations, cold starts, WMT, peak loaded,
    //  loaded-slot integral, Q3-CSR)
    (
        "spes",
        90_796,
        597,
        25_868,
        30,
        48_282,
        0.241_379_310_344_827_6,
    ),
    (
        "defuse",
        90_796,
        193,
        49_679,
        41,
        72_093,
        0.285_714_285_714_285_7,
    ),
    ("hybrid-function", 90_796, 299, 39_286, 33, 61_700, 0.45),
    (
        "hybrid-application",
        90_796,
        251,
        184_460,
        85,
        206_874,
        0.310_344_827_586_206_9,
    ),
    ("fixed-keep-alive", 90_796, 2_111, 41_218, 35, 63_632, 1.0),
    ("faascache", 90_796, 1_320, 64_368, 30, 86_400, 1.0),
];

#[test]
fn default_suite_matches_the_pinned_pre_registry_comparison() {
    let data = Experiment::sized(120, 7).generate();
    let suite = policies::default_suite(&SpesConfig::default());
    let cmp = run_suite_comparison(&data, &suite).unwrap();
    assert_eq!(cmp.runs.len(), PINNED.len());
    for (i, &(name, invocations, cold, wmt, peak, integral, q3)) in PINNED.iter().enumerate() {
        assert_eq!(POLICY_ORDER[i], name, "pin order drifted");
        let run = &cmp.runs[i];
        assert_eq!(run.policy_name, name, "suite order drifted");
        assert_eq!(run.total_invocations(), invocations, "{name} invocations");
        assert_eq!(run.total_cold_starts(), cold, "{name} cold starts");
        assert_eq!(run.total_wmt(), wmt, "{name} WMT");
        assert_eq!(run.peak_loaded, peak, "{name} peak loaded");
        assert_eq!(run.loaded_integral, integral, "{name} loaded integral");
        let got = run.csr_percentile(75.0).expect("invoked functions");
        assert!(
            (got - q3).abs() < 1e-12,
            "{name} Q3-CSR {got} != pinned {q3}"
        );
    }
}

/// Selecting the six by name produces bit-identical runs to
/// `default_suite`, including FaaSCache's resolved SPES-peak budget.
#[test]
fn explicit_suite_selection_matches_the_default_wrapper() {
    let data = Experiment::sized(120, 7).generate();
    let cfg = SpesConfig::default();
    let via_default = run_suite_comparison(&data, &policies::default_suite(&cfg)).unwrap();
    let suite = policies::suite_of(&POLICY_ORDER, &cfg).unwrap();
    let via_suite = run_suite_comparison(&data, &suite).unwrap();
    assert_eq!(via_default.runs.len(), via_suite.runs.len());
    for (a, b) in via_default.runs.iter().zip(&via_suite.runs) {
        assert_eq!(a.policy_name, b.policy_name);
        assert_eq!(a.total_cold_starts(), b.total_cold_starts());
        assert_eq!(a.total_wmt(), b.total_wmt());
        assert_eq!(a.loaded_integral, b.loaded_integral);
    }
}

/// `--policies spes,defuse,oracle`-style subsets run through the same
/// machinery and keep the oracle's zero-cold-start guarantee.
#[test]
fn arbitrary_subsets_including_the_oracle_run() {
    let data = Experiment::scenario("quick", 60, 7).unwrap().generate();
    let suite = policies::suite_of(&["spes", "defuse", "oracle"], &SpesConfig::default()).unwrap();
    let cmp = run_suite_comparison(&data, &suite).unwrap();
    let names: Vec<&str> = cmp.runs.iter().map(|r| r.policy_name.as_str()).collect();
    assert_eq!(names, ["spes", "defuse", "oracle"]);
    assert_eq!(cmp.try_run_of("oracle").unwrap().total_cold_starts(), 0);
    // SPES details are still available because spes is in the suite.
    assert!(cmp.fit_summary.is_some());
    assert_eq!(cmp.spes_labels.len(), 60);
}

/// No registered policy overflows a slot near the end of time. The trace
/// spans the whole `Slot` range: a chained app (parent, child two slots
/// later) and a steady function train on the first four days, so Defuse
/// mines an edge and the histogram policies learn pre-warm windows, then
/// every function fires three more times in the last 70 slots, the last at
/// `Slot::MAX - 1`: pre-warms and holds scheduled from those invocations
/// run past the end of the range. Fitting and simulating the last slots
/// must neither panic nor fail. FaaSCache is left out: its capacity comes
/// from a prior SPES run.
#[test]
fn no_registered_policy_overflows_at_the_last_slot() {
    use spes_sim::suite::FitContext;
    use spes_sim::{try_simulate, SimConfig};
    use spes_trace::{AppId, FunctionMeta, Slot, SparseSeries, Trace, TriggerType, UserId};

    let train_end: Slot = 4 * 1440;
    let last = Slot::MAX - 1;
    let with_tail = |slots: Vec<Slot>| {
        let mut pairs: Vec<(Slot, u32)> = slots.into_iter().map(|s| (s, 1)).collect();
        pairs.extend([(last - 69, 1), (last - 19, 1), (last, 1)]);
        SparseSeries::from_pairs(pairs)
    };
    let parent: Vec<Slot> = (0..train_end / 40).map(|i| i * 40 + (i * i) % 11).collect();
    let child: Vec<Slot> = parent.iter().map(|&s| s + 2).collect();
    let steady: Vec<Slot> = (0..train_end / 60).map(|i| i * 60).collect();
    let meta = |app: u32| FunctionMeta {
        app: AppId(app),
        user: UserId(app),
        trigger: TriggerType::Http,
    };
    let trace = Trace::new(
        Slot::MAX,
        vec![meta(1), meta(1), meta(2)],
        vec![with_tail(parent), with_tail(child), with_tail(steady)],
    );
    let ctx = FitContext {
        trace: &trace,
        train_start: 0,
        train_end,
        prior: &[],
    };
    for name in policies::policy_names() {
        if name == "faascache" {
            continue;
        }
        let spec = policies::spec_of(name, &SpesConfig::default()).unwrap();
        let mut policy = spec.build(&ctx);
        let run = try_simulate(
            &trace,
            policy.as_mut(),
            SimConfig::new(last - 80, Slot::MAX),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(run.total_invocations(), 9, "{name}");
    }
}
