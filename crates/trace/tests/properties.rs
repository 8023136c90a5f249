//! Property-based tests of the trace substrate: sparse-series algebra,
//! WT/AT/AN extraction invariants, generator guarantees, and CSV IO.

use proptest::prelude::*;
use spes_trace::{io, synth, Sequences, Slot, SparseSeries, SynthConfig};

/// Arbitrary sparse event list within a bounded horizon.
fn events(max_slot: Slot, max_len: usize) -> impl Strategy<Value = Vec<(Slot, u32)>> {
    prop::collection::vec((0..max_slot, 1u32..50), 0..max_len)
}

proptest! {
    #[test]
    fn from_pairs_is_sorted_positive_and_deduped(pairs in events(500, 80)) {
        let s = SparseSeries::from_pairs(pairs.clone());
        // Sorted strictly by slot.
        prop_assert!(s.events().windows(2).all(|w| w[0].0 < w[1].0));
        // Total preserved.
        let expected: u64 = pairs.iter().map(|&(_, c)| u64::from(c)).sum();
        prop_assert_eq!(s.total_invocations(), expected);
        // Counts all positive.
        prop_assert!(s.events().iter().all(|&(_, c)| c > 0));
    }

    #[test]
    fn add_is_order_independent(pairs in events(300, 50)) {
        let forward = {
            let mut s = SparseSeries::new();
            for &(slot, c) in &pairs {
                s.add(slot, c);
            }
            s
        };
        let backward = {
            let mut s = SparseSeries::new();
            for &(slot, c) in pairs.iter().rev() {
                s.add(slot, c);
            }
            s
        };
        prop_assert_eq!(forward.clone(), backward);
        prop_assert_eq!(forward, SparseSeries::from_pairs(pairs));
    }

    #[test]
    fn events_in_partitions_the_series(pairs in events(400, 60), mid in 0u32..400) {
        let s = SparseSeries::from_pairs(pairs);
        let left = s.events_in(0, mid).len();
        let right = s.events_in(mid, 400).len();
        prop_assert_eq!(left + right, s.events().len());
    }

    #[test]
    fn wt_at_an_axioms(pairs in events(600, 100)) {
        let s = SparseSeries::from_pairs(pairs);
        let seq = Sequences::extract(&s, 0, 600);
        // One WT fewer than active runs (or both empty).
        if seq.at.is_empty() {
            prop_assert!(seq.wt.is_empty());
            prop_assert!(s.is_empty());
        } else {
            prop_assert_eq!(seq.wt.len() + 1, seq.at.len());
            prop_assert_eq!(seq.at.len(), seq.an.len());
        }
        // AT slots sum to the number of active slots.
        let at_sum: u64 = seq.at.iter().map(|&a| u64::from(a)).sum();
        prop_assert_eq!(at_sum, s.active_slots() as u64);
        // AN sums to total invocations.
        let an_sum: u64 = seq.an.iter().sum();
        prop_assert_eq!(an_sum, s.total_invocations());
        // WTs are all positive; spans reconstruct first..last.
        prop_assert!(seq.wt.iter().all(|&w| w > 0));
        if let (Some(first), Some(last)) = (s.first_slot(), s.last_slot()) {
            let wt_sum: u64 = seq.wt.iter().map(|&w| u64::from(w)).sum();
            prop_assert_eq!(at_sum + wt_sum, u64::from(last - first + 1));
        }
    }

    #[test]
    fn csv_round_trip_any_series(pairs in events(300, 40)) {
        let meta = spes_trace::FunctionMeta {
            app: spes_trace::AppId(3),
            user: spes_trace::UserId(9),
            trigger: spes_trace::TriggerType::Queue,
        };
        let trace = spes_trace::Trace::new(
            300,
            vec![meta],
            vec![SparseSeries::from_pairs(pairs)],
        );
        let mut buf = Vec::new();
        io::write_csv(&trace, &mut buf).unwrap();
        let parsed = io::read_csv(&buf[..], Some(300)).unwrap();
        prop_assert_eq!(parsed.series, trace.series);
        prop_assert_eq!(parsed.metas, trace.metas);
    }

    #[test]
    fn generator_is_deterministic_and_bounded(seed in 0u64..1000, n in 20usize..80) {
        let cfg = SynthConfig {
            n_functions: n,
            days: 4,
            train_days: 3,
            seed,
            ..SynthConfig::default()
        };
        let a = synth::generate(&cfg);
        let b = synth::generate(&cfg);
        prop_assert_eq!(&a.trace.series, &b.trace.series);
        prop_assert_eq!(a.trace.n_functions(), n);
        for s in &a.trace.series {
            if let Some(last) = s.last_slot() {
                prop_assert!(last < a.trace.n_slots);
            }
        }
        // Specs align with the trace and segments tile the horizon.
        prop_assert_eq!(a.specs.len(), n);
        for spec in &a.specs {
            prop_assert!(!spec.segments.is_empty());
            for w in spec.segments.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            prop_assert_eq!(spec.segments.last().unwrap().end, a.trace.n_slots);
        }
    }

    #[test]
    fn slot_batches_preserve_all_events(seed in 0u64..200) {
        let data = synth::generate(&SynthConfig {
            n_functions: 30,
            days: 2,
            train_days: 1,
            seed,
            ..SynthConfig::default()
        });
        let t = &data.trace;
        let batches = t.slot_batches(0, t.n_slots);
        let batched: u64 = batches
            .iter()
            .flat_map(|(_, batch)| batch)
            .map(|&(_, c)| u64::from(c))
            .sum();
        let direct: u64 = t.series.iter().map(SparseSeries::total_invocations).sum();
        prop_assert_eq!(batched, direct);
    }
}
