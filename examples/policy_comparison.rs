//! Head-to-head comparison of registered policies on one workload — a
//! miniature of the paper's Figs. 8, 9, and 11, plus the oracle and the
//! trivial brackets the paper's tables leave out.
//!
//! Both experiment axes come from registries: the workload from the
//! scenario registry (swap "chain-heavy" for any `spes::scenario_names()`
//! entry) and the policies from the policy registry (swap the name list
//! for any `spes::policy_names()` subset). FaaSCache's "budget = SPES's
//! peak memory" coupling is declared on its spec and resolved by the
//! suite runner — no manual plumbing here.
//!
//! ```sh
//! cargo run --release --example policy_comparison
//! ```

use spes::core::SpesConfig;
use spes::sim::{normalized, RunResult};
use spes::trace::{synth, SynthConfig};

fn main() {
    let config = SynthConfig {
        n_functions: 800,
        seed: 2024,
        ..spes::scenario_config("chain-heavy").expect("registered scenario")
    };
    let data = synth::generate(&config);

    // The paper's six, bracketed by the clairvoyant oracle (lower bound
    // on cold starts) and the keep-forever bound (maximal memory).
    let names = [
        "spes",
        "defuse",
        "hybrid-function",
        "hybrid-application",
        "fixed-keep-alive",
        "faascache",
        "oracle",
        "keep-forever",
    ];
    let suite = spes::suite_of(&names, &SpesConfig::default()).expect("registered policies");
    let cmp = spes::run_suite_comparison(&data, &suite).expect("valid suite");
    let runs = &cmp.runs;

    let memory = normalized(runs, "spes", RunResult::mean_loaded);
    let wmt = normalized(runs, "spes", |r| r.total_wmt() as f64);

    println!(
        "{:<20} {:>8} {:>8} {:>12} {:>10} {:>12} {:>9}",
        "policy", "Q3-CSR", "P90-CSR", "always-cold", "memory", "wasted-mem", "EMCR"
    );
    for ((run, (_, memory)), (_, wmt)) in runs.iter().zip(&memory).zip(&wmt) {
        println!(
            "{:<20} {:>8.3} {:>8.3} {:>11.1}% {:>9.2}x {:>11.2}x {:>8.1}%",
            run.policy_name,
            run.csr_percentile(75.0).unwrap_or(f64::NAN),
            run.csr_percentile(90.0).unwrap_or(f64::NAN),
            run.always_cold_fraction() * 100.0,
            memory,
            wmt,
            run.emcr() * 100.0,
        );
    }
    println!("\n(memory and wasted-mem are normalised to SPES = 1.00x)");
}
