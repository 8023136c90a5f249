//! The in-memory function-instance pool.
//!
//! Following the paper's simulation principles (Section V-A / VI-A2), all
//! function instances consume one unit of memory and, by default, a single
//! node holds arbitrarily many instances. A capacity-limited variant backs
//! the FaaSCache baseline, which works against a fixed memory budget.

use spes_trace::{FunctionId, Slot};

/// One recorded pool transition (the engine turns these into policy
/// `spes_sim::events::SimEvent`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PoolOp {
    /// An instance was newly loaded.
    Load(FunctionId),
    /// A loaded instance was evicted.
    Evict(FunctionId),
    /// A load was refused (pool full or over the admission budget);
    /// nothing changed.
    Reject(FunctionId),
}

/// The set of loaded function instances.
///
/// Backed by a dense membership vector plus a swap-remove index so that
/// `contains`, `load`, and `evict` are O(1) and iteration over loaded
/// functions is linear in the number of loaded instances.
///
/// With journaling enabled (the engine turns it on), every effective
/// load/evict through the public API is additionally recorded as a
/// `PoolOp`; the engine drains the journal after each policy hook to
/// emit the corresponding events, which is how policy-initiated
/// transitions become visible to observers without diffing the pool.
/// The engine's own cold-start transitions (`demand_load` and the
/// `capacity_evict`s that make room for it) are not journalled: the
/// engine emits them as it makes them.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    member: Vec<bool>,
    position: Vec<u32>,
    loaded: Vec<FunctionId>,
    capacity: Option<usize>,
    /// Soft pressure budget for admission control; `None` admits every
    /// load. Unlike `capacity` (a hard limit that demand loads must make
    /// room under), the budget makes [`MemoryPool::load`] *refuse* loads
    /// that would push occupancy past it — the engine uses this to reject
    /// policy pre-warms under memory pressure while demand loads (which
    /// must serve a cold start) bypass it.
    admission: Option<usize>,
    /// Slot at which each currently loaded instance was loaded.
    loaded_at: Vec<Slot>,
    /// Transition journal; `None` when journaling is off (the default).
    journal: Option<Vec<PoolOp>>,
    /// Highest occupancy since the last [`MemoryPool::reset_peak`],
    /// raised on every insert: the engine hands it to observers as a
    /// batch's mid-slot peak.
    peak: usize,
}

const NO_POSITION: u32 = u32::MAX;

impl MemoryPool {
    /// Creates an empty pool for `n_functions` functions with unlimited
    /// capacity.
    #[must_use]
    pub fn unbounded(n_functions: usize) -> Self {
        Self::with_capacity(n_functions, None)
    }

    /// Creates an empty pool; `capacity` of `Some(k)` limits the pool to
    /// `k` simultaneously loaded instances.
    #[must_use]
    pub fn with_capacity(n_functions: usize, capacity: Option<usize>) -> Self {
        Self {
            member: vec![false; n_functions],
            position: vec![NO_POSITION; n_functions],
            loaded: Vec::new(),
            capacity,
            admission: None,
            loaded_at: vec![0; n_functions],
            journal: None,
            peak: 0,
        }
    }

    /// Turns on the transition journal (engine-internal).
    pub(crate) fn enable_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Sets the pressure-admission budget (engine-internal; see
    /// [`crate::engine::SimConfig::with_pressure_budget`]).
    pub(crate) fn set_admission_budget(&mut self, budget: Option<usize>) {
        self.admission = budget;
    }

    /// The pressure-admission budget, if one is active.
    #[must_use]
    pub fn admission_budget(&self) -> Option<usize> {
        self.admission
    }

    /// Moves all journalled transitions into `out` (engine-internal).
    pub(crate) fn drain_journal_into(&mut self, out: &mut Vec<PoolOp>) {
        if let Some(journal) = &mut self.journal {
            out.append(journal);
        }
    }

    /// Restarts the occupancy high-water mark at the current occupancy
    /// (engine-internal: called where a batch starts).
    pub(crate) fn reset_peak(&mut self) {
        self.peak = self.loaded.len();
    }

    /// The highest occupancy since the last [`MemoryPool::reset_peak`]
    /// (engine-internal).
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    fn record(&mut self, op: PoolOp) {
        if let Some(journal) = &mut self.journal {
            journal.push(op);
        }
    }

    /// Number of functions the pool tracks.
    #[must_use]
    pub fn n_functions(&self) -> usize {
        self.member.len()
    }

    /// Number of currently loaded instances.
    #[must_use]
    pub fn loaded_count(&self) -> usize {
        self.loaded.len()
    }

    /// Optional capacity limit.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Whether the pool is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.capacity.is_some_and(|c| self.loaded.len() >= c)
    }

    /// Whether `f` is loaded.
    #[must_use]
    pub fn contains(&self, f: FunctionId) -> bool {
        self.member[f.index()]
    }

    /// Loads `f` at slot `now`. Returns `true` if it was newly loaded,
    /// `false` if it was already present (a no-op) or refused because the
    /// pool is full or at the pressure-admission budget (the refusal is
    /// journalled, so under the engine it surfaces as a
    /// `SimEvent::LoadRejected`). A policy that wants room evicts first.
    pub fn load(&mut self, f: FunctionId, now: Slot) -> bool {
        if self.member[f.index()] {
            return false;
        }
        if self.is_full() || self.admission.is_some_and(|b| self.loaded.len() >= b) {
            self.record(PoolOp::Reject(f));
            return false;
        }
        self.insert(f, now);
        self.record(PoolOp::Load(f));
        true
    }

    /// Loads `f` bypassing the admission budget and the journal
    /// (engine-internal: demand loads serve a cold start and cannot be
    /// deferred; the engine emits them itself).
    ///
    /// # Panics
    /// Panics when loading a new instance into a full pool; the engine
    /// makes room first.
    pub(crate) fn demand_load(&mut self, f: FunctionId, now: Slot) -> bool {
        if self.member[f.index()] {
            return false;
        }
        self.insert(f, now);
        true
    }

    fn insert(&mut self, f: FunctionId, now: Slot) {
        assert!(
            !self.is_full(),
            "loading {f} into a full pool (capacity {:?})",
            self.capacity
        );
        self.member[f.index()] = true;
        self.position[f.index()] = self.loaded.len() as u32;
        self.loaded.push(f);
        self.loaded_at[f.index()] = now;
        self.peak = self.peak.max(self.loaded.len());
    }

    /// Evicts `f`. Returns `true` if it was loaded.
    pub fn evict(&mut self, f: FunctionId) -> bool {
        let evicted = self.capacity_evict(f);
        if evicted {
            self.record(PoolOp::Evict(f));
        }
        evicted
    }

    /// Evicts `f` without journalling it (engine-internal: the engine
    /// emits the evictions that make room for a demand load itself).
    /// Returns `true` if it was loaded.
    pub(crate) fn capacity_evict(&mut self, f: FunctionId) -> bool {
        if !self.member[f.index()] {
            return false;
        }
        let pos = self.position[f.index()] as usize;
        let last = *self.loaded.last().expect("non-empty loaded list");
        self.loaded.swap_remove(pos);
        if pos < self.loaded.len() {
            self.position[last.index()] = pos as u32;
        }
        self.member[f.index()] = false;
        self.position[f.index()] = NO_POSITION;
        true
    }

    /// The longest-loaded instance (ties broken by the pool's internal
    /// order, matching the engine's historical fallback). This is the
    /// shared oldest-instance eviction fallback used wherever a victim is
    /// needed and no better choice exists.
    #[must_use]
    pub fn oldest_loaded(&self) -> Option<FunctionId> {
        self.loaded
            .iter()
            .copied()
            .min_by_key(|&f| self.loaded_since(f))
    }

    /// Slot at which `f` was most recently loaded (meaningful only while
    /// `f` is loaded).
    #[must_use]
    pub fn loaded_since(&self, f: FunctionId) -> Slot {
        self.loaded_at[f.index()]
    }

    /// The currently loaded functions, in unspecified order.
    #[must_use]
    pub fn loaded(&self) -> &[FunctionId] {
        &self.loaded
    }

    /// The idle sweep: evicts every loaded `f` with
    /// `evict(f, loaded_since(f))`, visiting [`MemoryPool::loaded`] as it
    /// stood before the sweep, so the resulting pool order is the one
    /// [`MemoryPool::oldest_loaded`] ties and snapshots were pinned with.
    pub fn evict_where(&mut self, mut evict: impl FnMut(FunctionId, Slot) -> bool) {
        for f in self.loaded.clone() {
            if evict(f, self.loaded_at[f.index()]) {
                self.evict(f);
            }
        }
    }

    /// Evicts everything.
    pub fn clear(&mut self) {
        for f in std::mem::take(&mut self.loaded) {
            self.member[f.index()] = false;
            self.position[f.index()] = NO_POSITION;
            self.record(PoolOp::Evict(f));
        }
    }

    /// Rebuilds the loaded set from snapshot `(function, loaded_at)`
    /// entries, in exactly the given order (snapshot-restore internal).
    ///
    /// Preserving insertion order matters: [`MemoryPool::oldest_loaded`]
    /// breaks load-slot ties by internal order, so a resumed run only
    /// stays bit-identical to the uninterrupted one if the order
    /// survives the round trip. Nothing is journalled — the instances
    /// were loaded before the snapshot, not now.
    ///
    /// # Errors
    /// Rejects out-of-range ids, duplicates, and entry counts beyond the
    /// pool's capacity.
    pub(crate) fn restore_loaded(&mut self, entries: &[(FunctionId, Slot)]) -> Result<(), String> {
        if self.capacity.is_some_and(|c| entries.len() > c) {
            return Err(format!(
                "snapshot holds {} loaded instances but the pool capacity is {:?}",
                entries.len(),
                self.capacity
            ));
        }
        for f in std::mem::take(&mut self.loaded) {
            self.member[f.index()] = false;
            self.position[f.index()] = NO_POSITION;
        }
        for &(f, at) in entries {
            if f.index() >= self.member.len() {
                return Err(format!(
                    "snapshot loads function {} but the pool tracks {}",
                    f.0,
                    self.member.len()
                ));
            }
            if self.member[f.index()] {
                return Err(format!("snapshot loads function {} twice", f.0));
            }
            self.member[f.index()] = true;
            self.position[f.index()] = self.loaded.len() as u32;
            self.loaded.push(f);
            self.loaded_at[f.index()] = at;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_contains() {
        let mut pool = MemoryPool::unbounded(4);
        assert!(!pool.contains(FunctionId(1)));
        assert!(pool.load(FunctionId(1), 5));
        assert!(pool.contains(FunctionId(1)));
        assert_eq!(pool.loaded_count(), 1);
        assert_eq!(pool.loaded_since(FunctionId(1)), 5);
    }

    #[test]
    fn double_load_is_noop() {
        let mut pool = MemoryPool::unbounded(4);
        assert!(pool.load(FunctionId(0), 1));
        assert!(!pool.load(FunctionId(0), 9));
        assert_eq!(pool.loaded_count(), 1);
        // The original load slot is preserved on a no-op load.
        assert_eq!(pool.loaded_since(FunctionId(0)), 1);
    }

    #[test]
    fn evict_removes() {
        let mut pool = MemoryPool::unbounded(4);
        pool.load(FunctionId(0), 0);
        pool.load(FunctionId(1), 0);
        pool.load(FunctionId(2), 0);
        assert!(pool.evict(FunctionId(1)));
        assert!(!pool.contains(FunctionId(1)));
        assert_eq!(pool.loaded_count(), 2);
        assert!(pool.contains(FunctionId(0)));
        assert!(pool.contains(FunctionId(2)));
        // Evicting again is a no-op.
        assert!(!pool.evict(FunctionId(1)));
    }

    #[test]
    fn swap_remove_keeps_positions_consistent() {
        let mut pool = MemoryPool::unbounded(8);
        for i in 0..6 {
            pool.load(FunctionId(i), 0);
        }
        pool.evict(FunctionId(0)); // last element swaps into slot 0
        pool.evict(FunctionId(5)); // the swapped element must still evict cleanly
        assert_eq!(pool.loaded_count(), 4);
        for i in 1..5 {
            assert!(pool.contains(FunctionId(i)));
        }
    }

    #[test]
    fn capacity_enforced() {
        let mut pool = MemoryPool::with_capacity(8, Some(2));
        pool.load(FunctionId(0), 0);
        pool.load(FunctionId(1), 0);
        assert!(pool.is_full());
        // Re-loading an existing instance is fine at capacity.
        assert!(!pool.load(FunctionId(0), 0));
    }

    #[test]
    #[should_panic(expected = "full pool")]
    fn overfull_load_panics() {
        let mut pool = MemoryPool::with_capacity(8, Some(1));
        pool.demand_load(FunctionId(0), 0);
        pool.demand_load(FunctionId(1), 0);
    }

    #[test]
    fn overfull_policy_load_is_rejected() {
        let mut pool = MemoryPool::with_capacity(8, Some(1));
        pool.enable_journal();
        assert!(pool.load(FunctionId(0), 0));
        assert!(!pool.load(FunctionId(1), 0));
        assert_eq!(pool.loaded(), &[FunctionId(0)]);
        let mut ops = Vec::new();
        pool.drain_journal_into(&mut ops);
        assert_eq!(
            ops,
            vec![PoolOp::Load(FunctionId(0)), PoolOp::Reject(FunctionId(1))]
        );
    }

    #[test]
    fn unbounded_is_never_full() {
        let mut pool = MemoryPool::unbounded(100);
        for i in 0..100 {
            pool.load(FunctionId(i), 0);
        }
        assert!(!pool.is_full());
        assert_eq!(pool.loaded_count(), 100);
    }

    #[test]
    fn clear_empties() {
        let mut pool = MemoryPool::unbounded(4);
        pool.load(FunctionId(2), 0);
        pool.load(FunctionId(3), 0);
        pool.clear();
        assert_eq!(pool.loaded_count(), 0);
        assert!(!pool.contains(FunctionId(2)));
        // Pool remains usable.
        assert!(pool.load(FunctionId(2), 1));
    }

    #[test]
    fn oldest_loaded_is_the_earliest_load() {
        let mut pool = MemoryPool::unbounded(5);
        assert_eq!(pool.oldest_loaded(), None);
        pool.load(FunctionId(3), 7);
        pool.load(FunctionId(1), 2);
        pool.load(FunctionId(4), 9);
        assert_eq!(pool.oldest_loaded(), Some(FunctionId(1)));
        pool.evict(FunctionId(1));
        assert_eq!(pool.oldest_loaded(), Some(FunctionId(3)));
    }

    #[test]
    fn oldest_loaded_ties_break_by_pool_order() {
        let mut pool = MemoryPool::unbounded(5);
        pool.load(FunctionId(2), 4);
        pool.load(FunctionId(0), 4);
        // Same load slot: the first in the pool's internal order wins,
        // matching the engine's historical min_by_key fallback.
        assert_eq!(pool.oldest_loaded(), Some(FunctionId(2)));
    }

    #[test]
    fn journal_records_effective_transitions_only() {
        let mut pool = MemoryPool::unbounded(4);
        pool.enable_journal();
        pool.load(FunctionId(0), 0);
        pool.load(FunctionId(0), 1); // no-op: not journalled
        pool.evict(FunctionId(1)); // no-op: not journalled
        pool.evict(FunctionId(0));
        pool.load(FunctionId(2), 2);
        pool.clear();
        let mut ops = Vec::new();
        pool.drain_journal_into(&mut ops);
        assert_eq!(
            ops,
            vec![
                PoolOp::Load(FunctionId(0)),
                PoolOp::Evict(FunctionId(0)),
                PoolOp::Load(FunctionId(2)),
                PoolOp::Evict(FunctionId(2)),
            ]
        );
        // Draining empties the journal.
        let mut again = Vec::new();
        pool.drain_journal_into(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn journal_off_by_default() {
        let mut pool = MemoryPool::unbounded(2);
        pool.load(FunctionId(0), 0);
        let mut ops = Vec::new();
        pool.drain_journal_into(&mut ops);
        assert!(ops.is_empty());
    }

    #[test]
    fn admission_budget_refuses_loads_at_pressure() {
        let mut pool = MemoryPool::unbounded(4);
        pool.enable_journal();
        pool.set_admission_budget(Some(2));
        assert!(pool.load(FunctionId(0), 0));
        assert!(pool.load(FunctionId(1), 0));
        // At budget: further loads are refused and journalled as rejects.
        assert!(!pool.load(FunctionId(2), 0));
        assert!(!pool.contains(FunctionId(2)));
        // Re-loading a resident instance stays a plain no-op, not a reject.
        assert!(!pool.load(FunctionId(0), 1));
        // Demand loads bypass the budget, and the journal: the engine
        // emits them itself.
        assert!(pool.demand_load(FunctionId(3), 1));
        assert_eq!(pool.loaded_count(), 3);
        let mut ops = Vec::new();
        pool.drain_journal_into(&mut ops);
        assert_eq!(
            ops,
            vec![
                PoolOp::Load(FunctionId(0)),
                PoolOp::Load(FunctionId(1)),
                PoolOp::Reject(FunctionId(2)),
            ]
        );
    }

    #[test]
    fn admission_budget_reopens_after_evictions() {
        let mut pool = MemoryPool::unbounded(3);
        pool.set_admission_budget(Some(1));
        assert_eq!(pool.admission_budget(), Some(1));
        assert!(pool.load(FunctionId(0), 0));
        assert!(!pool.load(FunctionId(1), 0));
        pool.evict(FunctionId(0));
        assert!(pool.load(FunctionId(1), 1));
    }

    #[test]
    fn peak_is_the_high_water_mark_since_the_last_reset() {
        let mut pool = MemoryPool::unbounded(4);
        pool.load(FunctionId(0), 0);
        pool.demand_load(FunctionId(1), 0);
        pool.evict(FunctionId(0));
        assert_eq!((pool.peak(), pool.loaded_count()), (2, 1));
        // A reset starts from the current occupancy, not from zero.
        pool.reset_peak();
        assert_eq!(pool.peak(), 1);
        pool.evict(FunctionId(1));
        pool.load(FunctionId(2), 1);
        assert_eq!(pool.peak(), 1);
        pool.load(FunctionId(3), 1);
        assert_eq!(pool.peak(), 2);
    }

    #[test]
    fn loaded_lists_members() {
        let mut pool = MemoryPool::unbounded(5);
        pool.load(FunctionId(4), 0);
        pool.load(FunctionId(2), 0);
        let mut ids: Vec<u32> = pool.loaded().iter().map(|f| f.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 4]);
    }
}
