//! Integration tests of SPES's configuration knobs and ablation switches:
//! the trade-off directions of Fig. 13 and the ablation directions of
//! Figs. 14-15 must hold end to end.

use spes::core::{SpesConfig, SpesPolicy};
use spes::sim::{try_simulate, RunResult, SimConfig};
use spes::trace::{synth, SynthConfig, SynthTrace, SLOTS_PER_DAY};

fn workload(seed: u64) -> SynthTrace {
    synth::generate(&SynthConfig {
        n_functions: 400,
        seed,
        ..SynthConfig::default()
    })
}

fn run_with(data: &SynthTrace, cfg: SpesConfig) -> RunResult {
    let train_end = 12 * SLOTS_PER_DAY;
    let mut spes = SpesPolicy::fit(&data.trace, 0, train_end, cfg);
    try_simulate(
        &data.trace,
        &mut spes,
        SimConfig::new(0, data.trace.n_slots).with_metrics_start(train_end),
    )
    .unwrap()
}

/// Fig. 13a direction: larger pre-warm windows spend more memory and
/// produce no more cold starts.
#[test]
fn larger_prewarm_trades_memory_for_cold_starts() {
    let data = workload(55);
    let small = run_with(
        &data,
        SpesConfig {
            theta_prewarm: 1,
            ..SpesConfig::default()
        },
    );
    let large = run_with(
        &data,
        SpesConfig {
            theta_prewarm: 10,
            ..SpesConfig::default()
        },
    );
    assert!(
        large.mean_loaded() > small.mean_loaded(),
        "memory {} vs {}",
        large.mean_loaded(),
        small.mean_loaded()
    );
    assert!(
        large.total_cold_starts() <= small.total_cold_starts(),
        "cold {} vs {}",
        large.total_cold_starts(),
        small.total_cold_starts()
    );
}

/// Fig. 13b direction: scaling every give-up threshold up keeps instances
/// longer — more memory, no more cold starts.
#[test]
fn larger_givenup_trades_memory_for_cold_starts() {
    let data = workload(56);
    let base = run_with(&data, SpesConfig::default());
    let scaled = run_with(
        &data,
        SpesConfig {
            givenup_scaler: 5,
            ..SpesConfig::default()
        },
    );
    assert!(scaled.mean_loaded() > base.mean_loaded());
    assert!(scaled.total_cold_starts() <= base.total_cold_starts());
}

/// Figs. 14-15 direction: disabling each strategy does not improve the
/// paper's headline metric (the function-wise 75th-percentile CSR), up to
/// a small noise tolerance.
#[test]
fn ablations_do_not_improve_q3_csr() {
    let data = workload(57);
    let full = run_with(&data, SpesConfig::default());
    let full_q3 = full.csr_percentile(75.0).unwrap();
    for (name, cfg) in [
        (
            "w/o Corr",
            SpesConfig {
                enable_correlated: false,
                ..SpesConfig::default()
            },
        ),
        (
            "w/o Online-Corr",
            SpesConfig {
                enable_online_corr: false,
                ..SpesConfig::default()
            },
        ),
        (
            "w/o Forgetting",
            SpesConfig {
                enable_forgetting: false,
                ..SpesConfig::default()
            },
        ),
        (
            "w/o Adjusting",
            SpesConfig {
                enable_adjusting: false,
                ..SpesConfig::default()
            },
        ),
    ] {
        let ablated = run_with(&data, cfg);
        let ablated_q3 = ablated.csr_percentile(75.0).unwrap();
        assert!(
            ablated_q3 >= full_q3 - 0.02,
            "{name}: ablated Q3 {ablated_q3} clearly below full {full_q3}"
        );
    }
}
