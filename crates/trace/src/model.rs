//! Core trace model: functions, applications, users, triggers, and the
//! per-minute invocation trace.
//!
//! The model mirrors the Azure Functions 2019 dataset the paper evaluates
//! on: each function belongs to one application, each application to one
//! user (owner), each function carries a trigger type, and the trace
//! records the invocation count of every function for every minute of a
//! 14-day window.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A minute-granularity time slot index into the trace.
pub type Slot = u32;

/// Number of slots in one day at minute granularity.
pub const SLOTS_PER_DAY: Slot = 24 * 60;

/// Identifier of a serverless function (dense index into the trace).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FunctionId(pub u32);

/// Identifier of an application (a group of functions).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AppId(pub u32);

/// Identifier of a user (owner of one or more applications).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct UserId(pub u32);

impl FunctionId {
    /// The dense index of this function.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Trigger types, following the taxonomy of Fig. 5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TriggerType {
    /// HTTP requests (41.19% of functions in the Azure trace).
    Http,
    /// Scheduled timers (26.64%).
    Timer,
    /// Queue / service-bus messages (14.40%).
    Queue,
    /// Durable-orchestration activity (7.76%).
    Orchestration,
    /// Event-grid style events (2.52%).
    Event,
    /// Blob/storage events (2.19%).
    Storage,
    /// Everything else (2.72%).
    Others,
    /// More than one trigger type bound to the function (2.60%).
    Combination,
}

impl TriggerType {
    /// All trigger types in a stable order.
    pub const ALL: [TriggerType; 8] = [
        TriggerType::Http,
        TriggerType::Timer,
        TriggerType::Queue,
        TriggerType::Orchestration,
        TriggerType::Event,
        TriggerType::Storage,
        TriggerType::Others,
        TriggerType::Combination,
    ];

    /// Short stable name used in reports and the CSV format.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TriggerType::Http => "http",
            TriggerType::Timer => "timer",
            TriggerType::Queue => "queue",
            TriggerType::Orchestration => "orchestration",
            TriggerType::Event => "event",
            TriggerType::Storage => "storage",
            TriggerType::Others => "others",
            TriggerType::Combination => "combination",
        }
    }

    /// Parses a name produced by [`TriggerType::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.name() == s)
    }
}

impl fmt::Display for TriggerType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Static metadata of one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionMeta {
    /// Owning application.
    pub app: AppId,
    /// Owning user.
    pub user: UserId,
    /// Trigger type bound to the function.
    pub trigger: TriggerType,
}

/// A sparse per-minute invocation series: sorted `(slot, count)` pairs with
/// strictly positive counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseSeries {
    events: Vec<(Slot, u32)>,
}

impl SparseSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a series from `(slot, count)` pairs; pairs with zero count are
    /// dropped, duplicates are summed, and the result is sorted.
    #[must_use]
    pub fn from_pairs(mut pairs: Vec<(Slot, u32)>) -> Self {
        pairs.retain(|&(_, c)| c > 0);
        pairs.sort_unstable_by_key(|&(s, _)| s);
        let mut events: Vec<(Slot, u32)> = Vec::with_capacity(pairs.len());
        for (slot, count) in pairs {
            match events.last_mut() {
                Some((last_slot, last_count)) if *last_slot == slot => {
                    *last_count = last_count.saturating_add(count);
                }
                _ => events.push((slot, count)),
            }
        }
        Self { events }
    }

    /// Appends an invocation count at `slot`, which must be strictly after
    /// every existing event (generator fast path).
    ///
    /// # Panics
    /// Panics if `slot` is not strictly increasing or `count` is zero.
    pub fn push(&mut self, slot: Slot, count: u32) {
        assert!(count > 0, "zero-count event");
        if let Some(&(last, _)) = self.events.last() {
            assert!(slot > last, "push out of order: {slot} after {last}");
        }
        self.events.push((slot, count));
    }

    /// Adds `count` invocations at `slot`, merging with an existing event.
    /// Unlike [`SparseSeries::push`], arbitrary order is allowed; a slot
    /// past the last event appends without a search.
    pub fn add(&mut self, slot: Slot, count: u32) {
        if count == 0 {
            return;
        }
        if self.events.last().is_none_or(|&(last, _)| slot > last) {
            self.events.push((slot, count));
            return;
        }
        match self.events.binary_search_by_key(&slot, |&(s, _)| s) {
            Ok(i) => self.events[i].1 = self.events[i].1.saturating_add(count),
            Err(i) => self.events.insert(i, (slot, count)),
        }
    }

    /// Number of slots with at least one invocation.
    #[must_use]
    pub fn active_slots(&self) -> usize {
        self.events.len()
    }

    /// Whether the series has no invocations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total invocations over the whole series.
    #[must_use]
    pub fn total_invocations(&self) -> u64 {
        self.events.iter().map(|&(_, c)| u64::from(c)).sum()
    }

    /// Invocation count at `slot` (0 when absent).
    #[must_use]
    pub fn count_at(&self, slot: Slot) -> u32 {
        match self.events.binary_search_by_key(&slot, |&(s, _)| s) {
            Ok(i) => self.events[i].1,
            Err(_) => 0,
        }
    }

    /// All events as a slice of `(slot, count)` pairs.
    #[must_use]
    pub fn events(&self) -> &[(Slot, u32)] {
        &self.events
    }

    /// Events within `[start, end)`.
    #[must_use]
    pub fn events_in(&self, start: Slot, end: Slot) -> &[(Slot, u32)] {
        let lo = self.events.partition_point(|&(s, _)| s < start);
        let hi = self.events.partition_point(|&(s, _)| s < end);
        &self.events[lo..hi]
    }

    /// First invoked slot, if any.
    #[must_use]
    pub fn first_slot(&self) -> Option<Slot> {
        self.events.first().map(|&(s, _)| s)
    }

    /// Last invoked slot, if any.
    #[must_use]
    pub fn last_slot(&self) -> Option<Slot> {
        self.events.last().map(|&(s, _)| s)
    }
}

/// A complete invocation trace over a population of functions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Exclusive upper bound of valid slots.
    pub n_slots: Slot,
    /// Per-function metadata, indexed by [`FunctionId`].
    pub metas: Vec<FunctionMeta>,
    /// Per-function invocation series, indexed by [`FunctionId`].
    pub series: Vec<SparseSeries>,
}

impl Trace {
    /// Creates a trace; `metas` and `series` must have equal length.
    ///
    /// # Panics
    /// Panics on length mismatch or an event at/after `n_slots`.
    #[must_use]
    pub fn new(n_slots: Slot, metas: Vec<FunctionMeta>, series: Vec<SparseSeries>) -> Self {
        assert_eq!(metas.len(), series.len(), "metas/series length mismatch");
        for (i, s) in series.iter().enumerate() {
            if let Some(last) = s.last_slot() {
                assert!(
                    last < n_slots,
                    "function {i} has event at slot {last} >= n_slots {n_slots}"
                );
            }
        }
        Self {
            n_slots,
            metas,
            series,
        }
    }

    /// Number of functions in the trace.
    #[must_use]
    pub fn n_functions(&self) -> usize {
        self.metas.len()
    }

    /// Iterator over all function ids.
    pub fn function_ids(&self) -> impl Iterator<Item = FunctionId> + '_ {
        (0..self.metas.len() as u32).map(FunctionId)
    }

    /// Series of one function.
    #[must_use]
    pub fn series_of(&self, f: FunctionId) -> &SparseSeries {
        &self.series[f.index()]
    }

    /// Metadata of one function.
    #[must_use]
    pub fn meta_of(&self, f: FunctionId) -> &FunctionMeta {
        &self.metas[f.index()]
    }

    /// Functions grouped by application.
    #[must_use]
    pub fn functions_by_app(&self) -> BTreeMap<AppId, Vec<FunctionId>> {
        let mut map: BTreeMap<AppId, Vec<FunctionId>> = BTreeMap::new();
        for (i, meta) in self.metas.iter().enumerate() {
            map.entry(meta.app).or_default().push(FunctionId(i as u32));
        }
        map
    }

    /// Functions grouped by user.
    #[must_use]
    pub fn functions_by_user(&self) -> BTreeMap<UserId, Vec<FunctionId>> {
        let mut map: BTreeMap<UserId, Vec<FunctionId>> = BTreeMap::new();
        for (i, meta) in self.metas.iter().enumerate() {
            map.entry(meta.user).or_default().push(FunctionId(i as u32));
        }
        map
    }

    /// Per-slot active-set index for `[start, end)`: every
    /// `(function, count)` invoked at slot `t`, stored as one flat event
    /// array plus a per-slot offset table (CSR layout).
    ///
    /// The simulation engine iterates this once per run: each slot costs
    /// `O(active functions)` — idle functions are never visited — and the
    /// whole window costs a single allocation of `O(events)` instead of
    /// one growable vector per slot. Within a slot, function ids ascend,
    /// which is the order the engine's event stream is pinned to.
    ///
    /// ```
    /// use spes_trace::synth::small_test_trace;
    ///
    /// let trace = small_test_trace(50, 7).trace;
    /// let batches = trace.slot_batches(0, trace.n_slots);
    /// for (slot, batch) in batches.iter() {
    ///     assert!(batch.windows(2).all(|w| w[0].0 < w[1].0));
    ///     for &(f, count) in batch {
    ///         assert_eq!(trace.series_of(f).count_at(slot), count);
    ///     }
    /// }
    /// ```
    ///
    /// # Panics
    /// Panics if `start > end`.
    #[must_use]
    pub fn slot_batches(&self, start: Slot, end: Slot) -> SlotBatches {
        assert!(start <= end, "invalid bucket range");
        let window = (end - start) as usize;
        let mut counts = vec![0usize; window];
        for series in &self.series {
            for &(slot, _) in series.events_in(start, end) {
                counts[(slot - start) as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(window + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &c in &counts {
            total += c;
            offsets.push(total);
        }
        let mut events = vec![(FunctionId(0), 0u32); total];
        let mut cursor: Vec<usize> = offsets[..window].to_vec();
        for (i, series) in self.series.iter().enumerate() {
            for &(slot, count) in series.events_in(start, end) {
                let idx = (slot - start) as usize;
                events[cursor[idx]] = (FunctionId(i as u32), count);
                cursor[idx] += 1;
            }
        }
        SlotBatches {
            start,
            offsets,
            events,
        }
    }

    /// A stable 64-bit FNV-1a digest over the whole trace (horizon,
    /// metadata, and every invocation event). Two traces digest equal
    /// iff they drive identical simulations, which lets durable run
    /// journals name the trace they were recorded against without
    /// embedding it.
    #[must_use]
    pub fn digest64(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        mix(u64::from(self.n_slots));
        mix(self.metas.len() as u64);
        for meta in &self.metas {
            mix(u64::from(meta.app.0));
            mix(u64::from(meta.user.0));
            mix(meta.trigger as u64);
        }
        for series in &self.series {
            mix(series.events().len() as u64);
            for &(slot, count) in series.events() {
                mix(u64::from(slot));
                mix(u64::from(count));
            }
        }
        hash
    }
}

/// Compressed per-slot active-set index (CSR layout) over a slot window.
///
/// Built by [`Trace::slot_batches`] or, without a materialised
/// [`Trace`], by a [`SlotBatchesBuilder`] (the synthetic generator's
/// [`crate::synth::stream::SynthStream`] streams into one). One flat
/// `(function, count)` array holds every
/// invocation event in the window, slot-major; a per-slot offset table
/// maps slot `t` to its contiguous batch. Within a batch, events are
/// ordered by function id ascending, which the engine's event-order
/// determinism contract depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotBatches {
    /// First slot of the window (inclusive).
    start: Slot,
    /// `offsets[i]..offsets[i + 1]` indexes `events` for slot `start + i`.
    offsets: Vec<usize>,
    /// All invocation events in the window, slot-major, function-ascending
    /// within each slot.
    events: Vec<(FunctionId, u32)>,
}

impl SlotBatches {
    /// An incremental builder for the index over `[start, end)`; see
    /// [`SlotBatchesBuilder`].
    #[must_use]
    pub fn builder(start: Slot, end: Slot) -> SlotBatchesBuilder {
        let end = end.max(start);
        let n_days = if end == start {
            0
        } else {
            ((end - 1) / SLOTS_PER_DAY - start / SLOTS_PER_DAY + 1) as usize
        };
        SlotBatchesBuilder {
            start,
            end,
            offsets: vec![0; (end - start) as usize + 1],
            days: std::iter::repeat_with(DayBlock::default)
                .take(n_days)
                .collect(),
        }
    }

    /// Assembles the index from function-major triples (every event of
    /// function 0 first, then function 1, …) through
    /// [`SlotBatches::builder`]. Events outside `[start, end)` are
    /// ignored.
    #[must_use]
    pub fn from_function_major(
        start: Slot,
        end: Slot,
        triples: &[(Slot, FunctionId, u32)],
    ) -> Self {
        let mut builder = Self::builder(start, end);
        for &(slot, f, count) in triples {
            builder.push(f, slot, count);
        }
        builder.finish()
    }

    /// First slot of the window (inclusive).
    #[must_use]
    pub fn start(&self) -> Slot {
        self.start
    }

    /// End of the window (exclusive).
    #[must_use]
    pub fn end(&self) -> Slot {
        self.start + (self.offsets.len() - 1) as Slot
    }

    /// Number of slots in the window.
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of invocation events in the window.
    #[must_use]
    pub fn n_events(&self) -> usize {
        self.events.len()
    }

    /// The `(function, count)` batch of one slot, function id ascending.
    /// Slots outside the window yield an empty batch.
    #[must_use]
    pub fn batch(&self, slot: Slot) -> &[(FunctionId, u32)] {
        if slot < self.start || slot >= self.end() {
            return &[];
        }
        let i = (slot - self.start) as usize;
        &self.events[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates `(slot, batch)` pairs over the whole window, including
    /// slots with an empty batch.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &[(FunctionId, u32)])> + '_ {
        (0..self.n_slots()).map(move |i| {
            (
                self.start + i as Slot,
                &self.events[self.offsets[i]..self.offsets[i + 1]],
            )
        })
    }
}

/// Builds a [`SlotBatches`] from events pushed one at a time, holding
/// each event once.
///
/// Pushed events are buffered per calendar day of the window
/// ([`SLOTS_PER_DAY`] slots) as 8-byte `(slot, count)` pairs plus
/// `(function, run length)` runs, and counted per slot as they arrive.
/// [`SlotBatchesBuilder::finish`] then places one day at a time into the
/// exact-size event array and frees that day's buffers, so the peak is
/// the buffered input plus one day of output (about 9.5 bytes per event
/// on the synthetic workload), not input plus output.
///
/// Within a slot, events keep their push order: pushing function-major
/// (every event of function 0, then function 1, …) yields the
/// function-ascending batches the engine relies on.
#[derive(Debug)]
pub struct SlotBatchesBuilder {
    start: Slot,
    end: Slot,
    /// `offsets[i + 1]` counts the events of slot `start + i` until
    /// [`SlotBatchesBuilder::finish`] turns the counts into offsets.
    offsets: Vec<usize>,
    /// One buffer per calendar day touching the window, in day order.
    days: Vec<DayBlock>,
}

/// The buffered events of one day, in push order.
#[derive(Debug, Default)]
struct DayBlock {
    pairs: Vec<(Slot, u32)>,
    /// Consecutive `pairs` of one function: `(function, run length)`.
    runs: Vec<(FunctionId, u32)>,
}

impl SlotBatchesBuilder {
    /// Adds `count` invocations of `f` at `slot`; events outside the
    /// window are ignored.
    pub fn push(&mut self, f: FunctionId, slot: Slot, count: u32) {
        if slot < self.start || slot >= self.end {
            return;
        }
        self.offsets[(slot - self.start) as usize + 1] += 1;
        let day = &mut self.days[(slot / SLOTS_PER_DAY - self.start / SLOTS_PER_DAY) as usize];
        day.pairs.push((slot, count));
        match day.runs.last_mut() {
            Some((last, len)) if *last == f => *len += 1,
            _ => day.runs.push((f, 1)),
        }
    }

    /// Places every buffered event, one day at a time, and returns the
    /// index.
    #[must_use]
    pub fn finish(self) -> SlotBatches {
        let Self {
            start,
            mut offsets,
            days,
            ..
        } = self;
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut events = Vec::with_capacity(offsets[offsets.len() - 1]);
        let mut lo = 0usize;
        for day in days {
            let hi = (lo + day_len(start + lo as Slot)).min(offsets.len() - 1);
            events.resize(offsets[hi], (FunctionId(0), 0u32));
            let mut cursor = offsets[lo..hi].to_vec();
            let mut pairs = day.pairs.iter();
            for &(f, len) in &day.runs {
                for &(slot, count) in pairs.by_ref().take(len as usize) {
                    let i = (slot - start) as usize - lo;
                    events[cursor[i]] = (f, count);
                    cursor[i] += 1;
                }
            }
            lo = hi;
        }
        SlotBatches {
            start,
            offsets,
            events,
        }
    }
}

/// Slots from `slot` to the end of its calendar day.
fn day_len(slot: Slot) -> usize {
    (SLOTS_PER_DAY - slot % SLOTS_PER_DAY) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> FunctionMeta {
        FunctionMeta {
            app: AppId(0),
            user: UserId(0),
            trigger: TriggerType::Http,
        }
    }

    #[test]
    fn trigger_names_round_trip() {
        for t in TriggerType::ALL {
            assert_eq!(TriggerType::from_name(t.name()), Some(t));
        }
        assert_eq!(TriggerType::from_name("bogus"), None);
    }

    #[test]
    fn from_pairs_sorts_dedups_and_drops_zeros() {
        let s = SparseSeries::from_pairs(vec![(5, 1), (2, 3), (5, 2), (7, 0)]);
        assert_eq!(s.events(), &[(2, 3), (5, 3)]);
        assert_eq!(s.total_invocations(), 6);
    }

    #[test]
    fn push_in_order() {
        let mut s = SparseSeries::new();
        s.push(1, 10);
        s.push(4, 2);
        assert_eq!(s.count_at(1), 10);
        assert_eq!(s.count_at(2), 0);
        assert_eq!(s.active_slots(), 2);
    }

    #[test]
    fn slot_batches_subwindow_and_out_of_range() {
        let metas = vec![meta(); 2];
        let series = vec![
            SparseSeries::from_pairs(vec![(1, 1), (4, 2)]),
            SparseSeries::from_pairs(vec![(4, 3)]),
        ];
        let trace = Trace::new(6, metas, series);
        let batches = trace.slot_batches(2, 5);
        assert_eq!(batches.start(), 2);
        assert_eq!(batches.end(), 5);
        assert_eq!(batches.batch(1), &[]);
        assert_eq!(batches.batch(5), &[]);
        assert_eq!(batches.batch(4), &[(FunctionId(0), 2), (FunctionId(1), 3)]);
    }

    #[test]
    fn slot_batches_from_function_major_matches_trace_index() {
        let metas = vec![meta(); 3];
        let series = vec![
            SparseSeries::from_pairs(vec![(0, 1), (3, 2)]),
            SparseSeries::from_pairs(vec![(3, 7)]),
            SparseSeries::from_pairs(vec![(1, 1), (3, 1)]),
        ];
        let trace = Trace::new(4, metas, series.clone());
        let mut triples = Vec::new();
        for (i, s) in series.iter().enumerate() {
            for &(slot, count) in s.events() {
                triples.push((slot, FunctionId(i as u32), count));
            }
        }
        let streamed = SlotBatches::from_function_major(0, 4, &triples);
        assert_eq!(streamed, trace.slot_batches(0, 4));
    }

    #[test]
    #[should_panic(expected = "push out of order")]
    fn push_rejects_out_of_order() {
        let mut s = SparseSeries::new();
        s.push(4, 1);
        s.push(4, 1);
    }

    #[test]
    #[should_panic(expected = "zero-count event")]
    fn push_rejects_zero_count() {
        let mut s = SparseSeries::new();
        s.push(4, 0);
    }

    #[test]
    fn add_merges_and_inserts() {
        let mut s = SparseSeries::from_pairs(vec![(3, 1)]);
        s.add(3, 2);
        s.add(1, 5);
        s.add(9, 0); // no-op
        assert_eq!(s.events(), &[(1, 5), (3, 3)]);
    }

    #[test]
    fn events_in_half_open_range() {
        let s = SparseSeries::from_pairs(vec![(1, 1), (3, 1), (5, 1), (8, 1)]);
        assert_eq!(s.events_in(3, 8), &[(3, 1), (5, 1)]);
        assert_eq!(s.events_in(0, 100), s.events());
        assert!(s.events_in(6, 8).is_empty());
    }

    #[test]
    fn first_last_slots() {
        let s = SparseSeries::from_pairs(vec![(4, 1), (9, 2)]);
        assert_eq!(s.first_slot(), Some(4));
        assert_eq!(s.last_slot(), Some(9));
        assert_eq!(SparseSeries::new().first_slot(), None);
    }

    #[test]
    fn trace_grouping() {
        let metas = vec![
            FunctionMeta {
                app: AppId(1),
                user: UserId(1),
                trigger: TriggerType::Http,
            },
            FunctionMeta {
                app: AppId(1),
                user: UserId(1),
                trigger: TriggerType::Timer,
            },
            FunctionMeta {
                app: AppId(2),
                user: UserId(1),
                trigger: TriggerType::Queue,
            },
        ];
        let series = vec![SparseSeries::new(); 3];
        let t = Trace::new(100, metas, series);
        let by_app = t.functions_by_app();
        assert_eq!(by_app[&AppId(1)].len(), 2);
        assert_eq!(by_app[&AppId(2)], vec![FunctionId(2)]);
        let by_user = t.functions_by_user();
        assert_eq!(by_user[&UserId(1)].len(), 3);
    }

    #[test]
    fn slot_batches_places_events() {
        let series = vec![
            SparseSeries::from_pairs(vec![(0, 1), (2, 5)]),
            SparseSeries::from_pairs(vec![(2, 7)]),
        ];
        let t = Trace::new(4, vec![meta(); 2], series);
        let batches = t.slot_batches(0, 4);
        assert_eq!(batches.n_slots(), 4);
        assert_eq!(batches.n_events(), 3);
        assert_eq!(batches.batch(0), &[(FunctionId(0), 1)]);
        assert!(batches.batch(1).is_empty());
        // Function order within a shared slot is ascending.
        assert_eq!(batches.batch(2), &[(FunctionId(0), 5), (FunctionId(1), 7)]);
        assert!(batches.batch(3).is_empty());
    }

    #[test]
    fn slot_batches_subrange() {
        let series = vec![SparseSeries::from_pairs(vec![(1, 1), (3, 1)])];
        let t = Trace::new(5, vec![meta()], series);
        let batches = t.slot_batches(2, 5);
        assert_eq!(batches.n_slots(), 3);
        assert!(batches.batch(2).is_empty());
        assert_eq!(batches.batch(3), &[(FunctionId(0), 1)]);
        assert!(batches.batch(4).is_empty());
        // The event before the window is not included.
        assert!(batches.batch(1).is_empty());
        assert_eq!(batches.n_events(), 1);
    }

    #[test]
    #[should_panic(expected = "metas/series length mismatch")]
    fn trace_rejects_length_mismatch() {
        let _ = Trace::new(10, vec![meta()], vec![]);
    }

    #[test]
    #[should_panic(expected = ">= n_slots")]
    fn trace_rejects_event_out_of_horizon() {
        let _ = Trace::new(
            5,
            vec![meta()],
            vec![SparseSeries::from_pairs(vec![(7, 1)])],
        );
    }
}
