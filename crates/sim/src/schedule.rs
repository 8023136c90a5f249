//! Scheduling tools shared by the provisioning policies: an [`Agenda`]
//! of work keyed by slot (pre-warm windows, re-loads), [`Holds`]
//! deadlines that keep pre-loaded instances from eviction, and the idle
//! sweep [`MemoryPool::evict_where`]. Each keeps the visit order the
//! event stream is pinned to.

use crate::memory::MemoryPool;
use spes_trace::{FunctionId, Slot};
use std::collections::BTreeMap;

/// Work items scheduled for future slots. Items drain in ascending slot
/// order, and in scheduling order within a slot.
#[derive(Debug, Clone, Default)]
pub struct Agenda<T> {
    slots: BTreeMap<Slot, Vec<T>>,
}

impl<T> Agenda<T> {
    /// Schedules `item` for slot `at`.
    pub fn schedule(&mut self, at: Slot, item: T) {
        self.slots.entry(at).or_default().push(item);
    }

    /// Removes and yields every item scheduled at or before `through`,
    /// past-due ones included. The iterator owns the items, so the
    /// caller may schedule more work while consuming it.
    pub fn drain_through(&mut self, through: Slot) -> impl Iterator<Item = T> {
        let mut due = Vec::new();
        while let Some(entry) = self.slots.first_entry() {
            if *entry.key() > through {
                break;
            }
            let items = entry.remove();
            if due.is_empty() {
                due = items;
            } else {
                due.extend(items);
            }
        }
        due.into_iter()
    }
}

/// Per-function hold deadlines: a held instance stays loaded up to, but
/// not including, its deadline slot.
#[derive(Debug, Clone, Default)]
pub struct Holds {
    /// Deadline per function index; 0 (or missing) means not tracked.
    until: Vec<Slot>,
    /// Exactly the functions with a non-zero deadline, in no set order.
    ids: Vec<FunctionId>,
}

impl Holds {
    /// Holds `f` until `until`, keeping the later of the old and new
    /// deadline.
    pub fn extend(&mut self, f: FunctionId, until: Slot) {
        let idx = f.index();
        if idx >= self.until.len() {
            self.until.resize(idx + 1, 0);
        }
        if until > self.until[idx] {
            if self.until[idx] == 0 {
                self.ids.push(f);
            }
            self.until[idx] = until;
        }
    }

    /// Whether `f` is held at slot `now`.
    #[must_use]
    pub fn is_held(&self, f: FunctionId, now: Slot) -> bool {
        self.until.get(f.index()).is_some_and(|&until| now < until)
    }

    /// Loads every function held at `now` into `pool` in ascending id
    /// order and forgets expired holds. Only functions with a deadline
    /// are sorted and visited, never the whole population. Slots must
    /// not go backwards across calls.
    pub fn reload_held(&mut self, now: Slot, pool: &mut MemoryPool) {
        let until = &mut self.until;
        self.ids.sort_unstable();
        self.ids.retain(|&f| {
            let held = now < until[f.index()];
            if held {
                pool.load(f, now);
            } else {
                until[f.index()] = 0;
            }
            held
        });
    }

    /// Number of holds [`Holds::reload_held`] visits.
    #[cfg(test)]
    fn tracked(&self) -> usize {
        self.ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agenda_is_fifo_within_a_slot() {
        let mut agenda = Agenda::default();
        agenda.schedule(4, 'b');
        agenda.schedule(2, 'a');
        agenda.schedule(4, 'c');
        agenda.schedule(4, 'd');
        assert_eq!(agenda.drain_through(4).collect::<String>(), "abcd");
        assert_eq!(agenda.drain_through(Slot::MAX).count(), 0);
    }

    #[test]
    fn agenda_drain_boundary_is_inclusive() {
        let mut agenda = Agenda::default();
        agenda.schedule(5, 5);
        agenda.schedule(6, 6);
        assert_eq!(agenda.drain_through(4).count(), 0);
        assert_eq!(agenda.drain_through(5).collect::<Vec<_>>(), [5]);
        assert_eq!(agenda.drain_through(5).count(), 0);
        assert_eq!(agenda.drain_through(6).collect::<Vec<_>>(), [6]);
    }

    #[test]
    fn agenda_drains_past_due_items_on_the_next_call() {
        let mut agenda = Agenda::default();
        agenda.schedule(3, "missed");
        agenda.schedule(9, "later");
        // Nothing drained at slot 3 itself; slot 7 still picks it up.
        assert_eq!(agenda.drain_through(7).collect::<Vec<_>>(), ["missed"]);
        assert_eq!(agenda.drain_through(9).collect::<Vec<_>>(), ["later"]);
    }

    #[test]
    fn agenda_handles_the_last_slot() {
        let mut agenda = Agenda::default();
        agenda.schedule(Slot::MAX, 2);
        agenda.schedule(0, 1);
        assert_eq!(agenda.drain_through(Slot::MAX - 1).collect::<Vec<_>>(), [1]);
        assert_eq!(agenda.drain_through(Slot::MAX).collect::<Vec<_>>(), [2]);
        assert_eq!(agenda.drain_through(Slot::MAX).count(), 0);
    }

    #[test]
    fn agenda_may_grow_while_drained() {
        let mut agenda = Agenda::default();
        agenda.schedule(1, 1);
        for item in agenda.drain_through(1) {
            agenda.schedule(2, item + 1);
        }
        assert_eq!(agenda.drain_through(2).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn holds_keep_the_later_deadline() {
        let mut holds = Holds::default();
        holds.extend(FunctionId(1), 10);
        holds.extend(FunctionId(1), 5);
        assert!(holds.is_held(FunctionId(1), 9));
        holds.extend(FunctionId(1), 12);
        assert!(holds.is_held(FunctionId(1), 11));
        assert!(!holds.is_held(FunctionId(1), 12));
        // Never-held functions, tracked index range or not, are free.
        assert!(!holds.is_held(FunctionId(0), 0));
        assert!(!holds.is_held(FunctionId(99), 0));
    }

    #[test]
    fn reload_loads_held_functions_in_ascending_order() {
        let mut holds = Holds::default();
        for f in [7, 2, 5] {
            holds.extend(FunctionId(f), 10);
        }
        let mut pool = MemoryPool::unbounded(8);
        holds.reload_held(3, &mut pool);
        assert_eq!(
            pool.loaded(),
            &[FunctionId(2), FunctionId(5), FunctionId(7)]
        );
        assert!(pool.loaded().iter().all(|&f| pool.loaded_since(f) == 3));
    }

    #[test]
    fn reload_prunes_expired_holds() {
        let mut holds = Holds::default();
        holds.extend(FunctionId(0), 4);
        holds.extend(FunctionId(1), 8);
        let mut pool = MemoryPool::unbounded(2);
        holds.reload_held(4, &mut pool);
        assert_eq!(pool.loaded(), &[FunctionId(1)]);
        assert_eq!(holds.tracked(), 1);
        holds.reload_held(8, &mut pool);
        assert_eq!(holds.tracked(), 0);
        // A fresh hold on a pruned function is tracked again.
        holds.extend(FunctionId(0), 20);
        assert_eq!(holds.tracked(), 1);
        assert!(holds.is_held(FunctionId(0), 19));
    }

    #[test]
    fn reload_visits_only_held_functions() {
        const N: usize = 1_000_000;
        let mut holds = Holds::default();
        let mut pool = MemoryPool::unbounded(N);
        for f in [3, 500_000, N as u32 - 1] {
            holds.extend(FunctionId(f), 100);
        }
        for now in 0..100 {
            holds.reload_held(now, &mut pool);
            // Three holds are visited per slot, whatever the population.
            assert_eq!(holds.tracked(), 3);
        }
        assert_eq!(pool.loaded_count(), 3);
        holds.reload_held(100, &mut pool);
        assert_eq!(holds.tracked(), 0);
    }
}
