//! Keyed single-flight: concurrent callers wanting the same key resolve with
//! one piece of work.
//!
//! The first [`SingleFlight::join`] of a key becomes its **owner** and does
//! the work; everyone joining meanwhile **waits** for a clone of what the
//! owner published. A failed owner publishes `None` — so does one that
//! unwinds, because dropping the guard publishes for it — and its waiters
//! contend again under their own control rather than inherit an error that
//! may be private to the owner (its deadline, its retry budget). The slot
//! leaves the table *before* waiters wake, so a late joiner starts fresh work
//! instead of reading a stale result.
//!
//! The table lock is held only for the insert/lookup/remove instant and a
//! waiter parks with nothing else held, so all slots of a table share one
//! rank. Each instantiation passes its own three [`Rank`]s (rows in
//! btr-lint.toml's `[lock_order]`).

use crate::{OrderedCondvar, OrderedMutex, Rank};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

struct Slot<V> {
    /// `None` while the owner is out; `Some(outcome)` once it published.
    state: OrderedMutex<Option<Option<V>>>,
    done: OrderedCondvar,
}

/// The single-flight table; see the module docs.
pub struct SingleFlight<K, V> {
    slots: OrderedMutex<HashMap<K, Arc<Slot<V>>>>,
    slot_rank: Rank,
    done_rank: Rank,
}

/// Result of [`SingleFlight::join`].
pub enum Flight<'a, K: Hash + Eq, V> {
    /// The caller owns the work and must complete the guard.
    Owner(FlightGuard<'a, K, V>),
    /// Another caller resolved first: its value, or `None` if it failed.
    Waited(Option<V>),
}

impl<K: Hash + Eq + Clone, V: Clone> SingleFlight<K, V> {
    /// An empty table whose table lock, slot locks, and slot condvars carry
    /// the given ranks.
    pub fn new(slots: Rank, slot: Rank, done: Rank) -> SingleFlight<K, V> {
        SingleFlight {
            slots: OrderedMutex::new(slots, HashMap::new()),
            slot_rank: slot,
            done_rank: done,
        }
    }

    /// Registers interest in `key`: become the owner, or wait for the
    /// current owner's published outcome.
    pub fn join(&self, key: &K) -> Flight<'_, K, V> {
        let slot = {
            let mut slots = self.slots.lock();
            if let Some(slot) = slots.get(key) {
                slot.clone()
            } else {
                slots.insert(
                    key.clone(),
                    Arc::new(Slot {
                        state: OrderedMutex::new(self.slot_rank, None),
                        done: OrderedCondvar::new(self.done_rank),
                    }),
                );
                return Flight::Owner(FlightGuard {
                    table: self,
                    key: key.clone(),
                    value: None,
                });
            }
        };
        // Park until the owner publishes; spurious wakeups re-test the state.
        let state = slot.done.wait_while(slot.state.lock(), |state| state.is_none());
        Flight::Waited(state.clone().flatten())
    }
}

/// Owner side of a slot. Publishing — or dropping, e.g. on a panic
/// unwinding through the work — removes the slot and wakes waiters; an
/// unpublished drop reads as a failure, so waiters never hang.
pub struct FlightGuard<'a, K: Hash + Eq, V> {
    table: &'a SingleFlight<K, V>,
    key: K,
    value: Option<V>,
}

impl<K: Hash + Eq, V> FlightGuard<'_, K, V> {
    /// Publishes the outcome (`None` for a failure) to any waiters.
    pub fn publish(mut self, value: Option<V>) {
        self.value = value;
    }
}

impl<K: Hash + Eq, V> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        // Remove the slot first so late joiners start fresh work, then wake
        // everyone already waiting on this one.
        let slot = self.table.slots.lock().remove(&self.key);
        if let Some(slot) = slot {
            *slot.state.lock() = Some(self.value.take());
            slot.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOTS: Rank = Rank::new(60, "test.flight.slots");
    const SLOT: Rank = Rank::new(64, "test.flight.slot");
    const DONE: Rank = Rank::new(65, "test.flight.slot.done");

    type Table = SingleFlight<(u32, u32), Vec<u8>>;

    fn table() -> Arc<Table> {
        Arc::new(SingleFlight::new(SLOTS, SLOT, DONE))
    }

    fn own(t: &Table, key: (u32, u32)) -> FlightGuard<'_, (u32, u32), Vec<u8>> {
        match t.join(&key) {
            Flight::Owner(guard) => guard,
            Flight::Waited(_) => panic!("first joiner must own"),
        }
    }

    /// Spawns a joiner of `key` that must find the slot owned, and returns
    /// once it has: the slot then has three holders (table, waiter, this
    /// function), which is what the spin observes.
    fn waiter(t: &Arc<Table>, key: (u32, u32)) -> std::thread::JoinHandle<Option<Vec<u8>>> {
        let handle = {
            let t = t.clone();
            std::thread::spawn(move || match t.join(&key) {
                Flight::Waited(value) => value,
                Flight::Owner(_) => panic!("slot is owned"),
            })
        };
        let slot = t.slots.lock().get(&key).cloned().expect("owner holds the slot");
        while Arc::strong_count(&slot) < 3 {
            std::thread::yield_now();
        }
        handle
    }

    #[test]
    fn owner_publishes_to_waiters_and_the_slot_is_gone_afterwards() {
        let t = table();
        let owner = own(&t, (1, 2));
        let waiting = waiter(&t, (1, 2));
        owner.publish(Some(vec![7, 8, 9]));
        assert_eq!(waiting.join().expect("waiter finishes"), Some(vec![7, 8, 9]));
        // The next joiner owns fresh work instead of reading the old result.
        assert!(matches!(t.join(&(1, 2)), Flight::Owner(_)));
    }

    #[test]
    fn failed_owner_reads_as_none_not_a_hang_and_is_not_inherited() {
        let t = table();
        // A published failure and an unpublished drop (work that errored
        // out or unwound) read the same to waiters.
        for publish in [true, false] {
            let owner = own(&t, (0, 0));
            let waiting = waiter(&t, (0, 0));
            if publish {
                owner.publish(None);
            } else {
                drop(owner);
            }
            assert_eq!(waiting.join().expect("waiter finishes"), None);
        }
        // Nothing is left behind: the next joiner owns fresh work.
        own(&t, (0, 0)).publish(Some(vec![1]));
    }

    #[test]
    fn distinct_keys_do_not_contend() {
        let t = table();
        let a = own(&t, (0, 0));
        let b = own(&t, (0, 1));
        drop(a);
        drop(b);
        assert!(t.slots.lock().is_empty());
    }
}
