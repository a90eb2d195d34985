//! One bounded memo behind every in-process cache of the pipeline.
//!
//! A [`Memo`] is a mutex-guarded hash map with a count cap and
//! least-recently-used eviction. Each call site picks when a key starts
//! keeping its value ([`Admission`]): on its first insert, or on its
//! second, so that one-shot traffic leaves only markers behind. Markers
//! count toward the cap, so no traffic pattern grows a memo past it, and
//! a full memo keeps admitting: the least recently used key makes room.
//!
//! The caller computes a missing value outside the lock and offers it
//! with [`insert`](Memo::insert); when two threads race one key, the
//! first stored value wins and the other caller adopts it.
//!
//! # Example
//!
//! ```
//! use pwcet_par::{Admission, Memo};
//!
//! let memo = Memo::new(64, Admission::SecondSighting);
//! memo.insert("key", 1); // the first sighting leaves a marker
//! assert_eq!(memo.get(&"key"), None);
//! memo.insert("key", 1); // the second stores the value
//! assert_eq!(memo.get(&"key"), Some(1));
//! ```

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard};

/// When a [`Memo`] starts keeping a key's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The first insert of a key stores its value.
    FirstSighting,
    /// The first insert of a key leaves a marker; the second stores the
    /// value. A key computed once retains no value.
    SecondSighting,
}

/// Counters and occupancy of a [`Memo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups answered with a stored value.
    pub hits: u64,
    /// Lookups that found no stored value (a marker is a miss).
    pub misses: u64,
    /// Keys, markers included, evicted to stay within the capacity.
    pub evictions: u64,
    /// Keys currently held, markers included.
    pub len: usize,
    /// Maximum number of keys held.
    pub capacity: usize,
}

/// One held key: its value, or `None` for a first-sighting marker.
#[derive(Debug)]
struct Slot<V> {
    value: Option<V>,
    /// When the key was last used; the smallest stamp is evicted first.
    stamp: u64,
}

#[derive(Debug)]
struct Inner<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// The last stamp handed out.
    clock: u64,
    /// Hits, misses and evictions; occupancy is read off `slots`.
    counts: MemoStats,
}

impl<K: Hash + Eq, V> Inner<K, V> {
    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Marks `key` most recently used, returning its slot.
    fn touch(&mut self, key: &K) -> Option<&mut Slot<V>> {
        let stamp = self.next_stamp();
        let slot = self.slots.get_mut(key)?;
        slot.stamp = stamp;
        Some(slot)
    }
}

/// A thread-safe, count-capped, LRU-evicting memo. Each call site picks
/// when a key starts keeping its value ([`Admission`]); a missing value
/// is computed outside the lock and offered with [`insert`](Self::insert),
/// the first stored value winning a race.
#[derive(Debug)]
pub struct Memo<K, V> {
    capacity: usize,
    admission: Admission,
    inner: Mutex<Inner<K, V>>,
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// An empty memo holding at most `capacity` keys, markers included.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize, admission: Admission) -> Self {
        assert!(capacity > 0, "a zero-capacity memo can never hit");
        Self {
            capacity,
            admission,
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                clock: 0,
                counts: MemoStats::default(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().expect("memo lock")
    }

    /// The stored value of `key`, counting a hit or a miss. A held key,
    /// marker or value, becomes the most recently used.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut inner = self.lock();
        let value = inner.touch(key).and_then(|slot| slot.value.clone());
        match value {
            Some(_) => inner.counts.hits += 1,
            None => inner.counts.misses += 1,
        }
        value
    }

    /// The stored value of `key`, without counting the lookup or
    /// changing its recency.
    pub fn peek(&self, key: &K) -> Option<V> {
        self.lock()
            .slots
            .get(key)
            .and_then(|slot| slot.value.clone())
    }

    /// Offers `value` for `key` and returns the value callers share from
    /// now on: one already stored wins over `value`; otherwise `value`,
    /// stored under the memo's [`Admission`] (a new key under
    /// second-sighting admission leaves a marker only). The key becomes
    /// the most recently used; a new key that overfills the memo evicts
    /// the least recently used one.
    pub fn insert(&self, key: K, value: V) -> V {
        let mut inner = self.lock();
        if let Some(slot) = inner.touch(&key) {
            return slot.value.get_or_insert(value).clone();
        }
        let stored = match self.admission {
            Admission::FirstSighting => Some(value.clone()),
            Admission::SecondSighting => None,
        };
        let stamp = inner.next_stamp();
        inner.slots.insert(
            key,
            Slot {
                value: stored,
                stamp,
            },
        );
        if inner.slots.len() > self.capacity {
            // Eviction scans, but only an over-full insert pays for it;
            // a hit only restamps its slot.
            let oldest = inner.slots.values().map(|slot| slot.stamp).min();
            inner.slots.retain(|_, slot| Some(slot.stamp) != oldest);
            inner.counts.evictions += 1;
        }
        value
    }

    /// Forgets `key`, returning its stored value.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.lock().slots.remove(key)?.value
    }

    /// Every stored `(key, value)` pair, least recently used first;
    /// markers are left out. Neither counts nor recency change.
    pub fn snapshot(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let inner = self.lock();
        let mut stored: Vec<(u64, K, V)> = inner
            .slots
            .iter()
            .filter_map(|(key, slot)| {
                let value = slot.value.clone()?;
                Some((slot.stamp, key.clone(), value))
            })
            .collect();
        stored.sort_unstable_by_key(|&(stamp, ..)| stamp);
        stored
            .into_iter()
            .map(|(_, key, value)| (key, value))
            .collect()
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> MemoStats {
        let inner = self.lock();
        MemoStats {
            len: inner.slots.len(),
            capacity: self.capacity,
            ..inner.counts
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn evicts_the_least_recently_used() {
        let memo = Memo::new(3, Admission::FirstSighting);
        for k in 1..=3 {
            memo.insert(k, k);
        }
        assert_eq!(memo.get(&1), Some(1), "1 becomes the most recent");
        memo.insert(4, 4);
        let keys: Vec<u32> = memo.snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [3, 1, 4], "2 was the least recently used");
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.evictions, stats.len), (1, 1, 3));
    }

    #[test]
    fn second_sighting_stores_on_the_second_insert() {
        let memo = Memo::new(4, Admission::SecondSighting);
        assert_eq!(memo.insert(7, 70), 70, "the caller keeps its value");
        assert_eq!(memo.get(&7), None, "a marker is a miss");
        assert_eq!(memo.stats().len, 1, "but counts toward the cap");
        assert_eq!(memo.insert(7, 71), 71);
        assert_eq!(memo.get(&7), Some(71));
        assert_eq!(memo.insert(7, 72), 71, "the first stored value wins");
    }

    #[test]
    fn racing_inserts_share_the_first_stored_value() {
        let memo = &Memo::new(4, Admission::FirstSighting);
        let start = &std::sync::Barrier::new(4);
        let shared: Vec<Arc<u32>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|i| {
                    scope.spawn(move || {
                        start.wait(); // all four compute before any inserts
                        memo.insert(1, Arc::new(i))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let stored = memo.peek(&1).expect("one insert stored");
        assert!(shared.iter().all(|value| Arc::ptr_eq(value, &stored)));
    }

    #[test]
    fn peek_changes_neither_counts_nor_recency() {
        let memo = Memo::new(2, Admission::FirstSighting);
        memo.insert(1, 1);
        memo.insert(2, 2);
        assert_eq!((memo.peek(&1), memo.peek(&3)), (Some(1), None));
        memo.insert(3, 3);
        assert_eq!(memo.peek(&1), None, "the peek did not save 1");
        assert_eq!((memo.stats().hits, memo.stats().misses), (0, 0));
    }

    #[test]
    fn remove_forgets_values_and_markers() {
        let memo = Memo::new(2, Admission::SecondSighting);
        memo.insert(1, 1);
        assert_eq!(memo.remove(&1), None, "a marker holds no value");
        memo.insert(1, 1);
        assert_eq!(memo.peek(&1), None, "so this was a first sighting");
        memo.insert(1, 1);
        assert_eq!(memo.remove(&1), Some(1));
        for k in 2..=4 {
            memo.insert(k, k);
        }
        assert_eq!(memo.stats().len, 2, "eviction order survives removals");
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        let _ = Memo::<u32, u32>::new(0, Admission::FirstSighting);
    }
}
