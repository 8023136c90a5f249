//! The day-block slot-index builder against a naive reference: filter the
//! events to the window, stable-sort them by `(slot, function)` and take
//! per-slot prefix counts. Windows start off a day boundary, cross at
//! least three day blocks and end mid-block; inputs include events
//! outside the window, empty blocks, both sides of the 1439/1440 day
//! boundary, and every event in one slot.

use proptest::prelude::*;
use spes_trace::{FunctionId, Slot, SlotBatches, SLOTS_PER_DAY};

type Event = (Slot, FunctionId, u32);

/// `(start, end)`: starts inside day `d` (never on its boundary), ends
/// inside day `d + days` with `days >= 2`, so at least three blocks.
fn window() -> impl Strategy<Value = (Slot, Slot)> {
    (0u32..3, 1u32..SLOTS_PER_DAY, 2u32..5, 1u32..SLOTS_PER_DAY).prop_map(
        |(day, start_off, days, end_off)| {
            (
                day * SLOTS_PER_DAY + start_off,
                (day + days) * SLOTS_PER_DAY + end_off,
            )
        },
    )
}

/// Places raw draws `(function, position, count)` on slots according to
/// `mode`, then orders them function-major (stable, so a function's
/// events keep their drawn order).
fn events_of(mode: u8, (start, end): (Slot, Slot), raw: &[(u32, u32, u32)]) -> Vec<Event> {
    let first_day_end = (start / SLOTS_PER_DAY + 1) * SLOTS_PER_DAY;
    let last_day_start = (end - 1) / SLOTS_PER_DAY * SLOTS_PER_DAY;
    let boundaries = [
        SLOTS_PER_DAY - 1,
        SLOTS_PER_DAY,
        first_day_end - 1,
        first_day_end,
        last_day_start - 1,
        last_day_start,
        start.saturating_sub(1),
        start,
        end - 1,
        end,
    ];
    let mut events: Vec<Event> = raw
        .iter()
        .map(|&(f, pos, count)| {
            let slot = match mode {
                // Anywhere in the window or up to 60 slots either side.
                0 => start.saturating_sub(60) + pos % (end - start + 120),
                // Every event in one slot.
                1 => start + (end - start) / 2,
                // Day and window boundaries only.
                2 => boundaries[pos as usize % boundaries.len()],
                // First and last block only: the blocks between stay empty.
                _ if pos % 2 == 0 => start + pos % (first_day_end - start),
                _ => last_day_start + pos % (end - last_day_start),
            };
            (slot, FunctionId(f), count)
        })
        .collect();
    events.sort_by_key(|&(_, f, _)| f);
    events
}

/// Per-slot batches of the naive reference over `[start, end)`.
fn reference(start: Slot, end: Slot, events: &[Event]) -> Vec<Vec<(FunctionId, u32)>> {
    let mut inside: Vec<Event> = events
        .iter()
        .copied()
        .filter(|&(slot, _, _)| slot >= start && slot < end)
        .collect();
    inside.sort_by_key(|&(slot, f, _)| (slot, f));
    let mut offsets = vec![0usize; (end - start) as usize + 1];
    for &(slot, _, _) in &inside {
        offsets[(slot - start) as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    offsets
        .windows(2)
        .map(|w| inside[w[0]..w[1]].iter().map(|&(_, f, c)| (f, c)).collect())
        .collect()
}

fn built(start: Slot, end: Slot, events: &[Event]) -> SlotBatches {
    let mut builder = SlotBatches::builder(start, end);
    for &(slot, f, count) in events {
        builder.push(f, slot, count);
    }
    builder.finish()
}

fn assert_matches_reference(start: Slot, end: Slot, events: &[Event], batches: &SlotBatches) {
    let want = reference(start, end, events);
    assert_eq!((batches.start(), batches.end()), (start, end));
    assert_eq!(batches.n_events(), want.iter().map(Vec::len).sum::<usize>());
    for ((slot, got), want) in batches.iter().zip(&want) {
        assert_eq!(got, want.as_slice(), "slot {slot}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn builder_matches_the_naive_reference(
        mode in 0u8..4,
        window in window(),
        raw in prop::collection::vec((0u32..12, 0u32..20_000, 1u32..6), 0..160),
    ) {
        let (start, end) = window;
        let events = events_of(mode, window, &raw);
        let batches = built(start, end, &events);
        let want = reference(start, end, &events);
        prop_assert_eq!(batches.n_events(), want.iter().map(Vec::len).sum::<usize>());
        for ((slot, got), want) in batches.iter().zip(&want) {
            prop_assert_eq!(got, want.as_slice(), "slot {}", slot);
        }
        prop_assert_eq!(
            &SlotBatches::from_function_major(start, end, &events),
            &batches
        );
    }
}

#[test]
fn events_either_side_of_a_day_boundary_land_in_their_slots() {
    let events = [
        (SLOTS_PER_DAY - 1, FunctionId(0), 2),
        (SLOTS_PER_DAY, FunctionId(0), 3),
        (SLOTS_PER_DAY - 1, FunctionId(4), 1),
        (SLOTS_PER_DAY, FunctionId(4), 5),
        (3 * SLOTS_PER_DAY + 7, FunctionId(4), 9),
    ];
    let (start, end) = (SLOTS_PER_DAY - 5, 3 * SLOTS_PER_DAY + 10);
    let batches = built(start, end, &events);
    assert_matches_reference(start, end, &events, &batches);
    assert_eq!(
        batches.batch(SLOTS_PER_DAY),
        &[(FunctionId(0), 3), (FunctionId(4), 5)]
    );
    // Day 2 is an empty block between two occupied ones.
    assert!((2 * SLOTS_PER_DAY..3 * SLOTS_PER_DAY).all(|t| batches.batch(t).is_empty()));
}

#[test]
fn empty_and_inverted_windows_hold_nothing() {
    let events = [(5, FunctionId(0), 1), (SLOTS_PER_DAY, FunctionId(1), 1)];
    for (start, end) in [(5, 5), (SLOTS_PER_DAY, 0)] {
        let batches = built(start, end, &events);
        assert_eq!(batches.n_slots(), 0);
        assert_eq!(batches.n_events(), 0);
        assert!(batches.batch(5).is_empty());
    }
}
