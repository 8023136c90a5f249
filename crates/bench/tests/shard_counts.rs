//! `ShardCounts` records what its doc says: folded in slot order, its
//! per-slot `(loaded, invoked-and-loaded)` pairs rebuild the global
//! per-slot metrics of the `RunCollector` riding the same run, exactly,
//! for every default-suite policy with and without a binding capacity.

use spes_bench::{Experiment, PolicyCell, POLICY_ORDER};
use spes_sim::{EvictionAudit, RunCollector, ShardCounts, SimConfig, Simulation};

#[test]
fn shard_counts_fold_to_the_collectors_slot_metrics() {
    let data = Experiment::cell("quick", 60, 7, true).unwrap().generate();
    let trace = &data.trace;
    let plain = SimConfig::new(0, trace.n_slots).with_metrics_start(data.train_end);
    for name in POLICY_ORDER {
        for config in [plain, plain.with_capacity(5)] {
            let case = format!("{name} under {config:?}");
            let mut policy = PolicyCell::new(name, &data).unwrap().build();
            let mut observers = Simulation::new(trace, config)
                .with_observer(Box::new(RunCollector::new()))
                .with_observer(Box::new(ShardCounts::new()))
                .with_observer(Box::new(EvictionAudit::new(0)))
                .run(policy.as_mut())
                .unwrap();
            let run = observers.take::<RunCollector>().unwrap().into_result();
            let counts: ShardCounts = observers.take().unwrap();
            let audit: EvictionAudit = observers.take().unwrap();
            if config.capacity.is_some() {
                assert!(audit.capacity_evictions > 0, "{case}: capacity never bound");
            }

            let (mut loaded_integral, mut peak_loaded) = (0u64, 0u64);
            let (mut emcr_sum, mut emcr_slots) = (0.0f64, 0u64);
            for &(loaded, invoked_loaded) in counts.counts() {
                loaded_integral += loaded;
                peak_loaded = peak_loaded.max(loaded);
                if loaded > 0 {
                    emcr_sum += invoked_loaded as f64 / loaded as f64;
                    emcr_slots += 1;
                }
            }
            assert_eq!(counts.counts().len() as u64, run.n_slots(), "{case}");
            assert_eq!(loaded_integral, run.loaded_integral, "{case}");
            assert_eq!(peak_loaded, run.peak_loaded as u64, "{case}");
            assert_eq!(emcr_slots, run.emcr_slots, "{case}");
            assert_eq!(emcr_sum.to_bits(), run.emcr_sum.to_bits(), "{case}");
        }
    }
}
