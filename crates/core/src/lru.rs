//! The least-recently-used store behind [`crate::PrefixCache`], the
//! one in-memory cache that evicts.
//!
//! An entry is a transformed prefix matrix pair, weighted by its size
//! in bytes against a byte budget. The store holds the canonical-string
//! keys, the recency queue, the running total and the eviction loop;
//! the admission rule (poisoned matrices), hit/miss accounting and
//! locking stay with the prefix cache. The trial memo
//! ([`crate::EvalCache`]) and the evaluator's fit memo never evict, so
//! each is a plain keyed map, not an `Lru`.
//!
//! Eviction order is a pure function of the call sequence: recency
//! comes from a monotonic logical tick, never from the wall clock or
//! from hash-map iteration order.

use std::collections::{BTreeMap, HashMap};

/// One resident entry.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    weight: u64,
    /// Recency stamp of the last insert or `get`.
    stamp: u64,
}

/// What one [`Lru::insert`] dropped: evicted residents plus, when the
/// new entry alone outweighs the whole budget, the refused entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Evicted {
    /// Entries dropped.
    pub(crate) count: u64,
    /// Their summed weight.
    pub(crate) weight: u64,
}

/// A weighted LRU map from canonical key strings to values.
#[derive(Debug)]
pub(crate) struct Lru<V> {
    /// canonical key -> entry.
    // lint:allow(nondet): keyed lookup only — eviction order comes from the recency BTreeMap, never from map iteration
    entries: HashMap<String, Slot<V>>,
    /// recency stamp -> canonical key; the first entry is the least
    /// recently used. Stamps are unique (monotonic tick), so this is a
    /// faithful queue.
    recency: BTreeMap<u64, String>,
    /// Monotonic logical clock for stamps.
    tick: u64,
    /// Summed weight of the residents.
    total: u64,
    /// Maximum summed weight.
    budget: u64,
}

impl<V> Lru<V> {
    /// An empty store holding at most `budget` total weight.
    pub(crate) fn new(budget: u64) -> Lru<V> {
        Lru { entries: Default::default(), recency: BTreeMap::new(), tick: 0, total: 0, budget }
    }

    /// Number of residents.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Summed weight of the residents; never above the budget.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// The value stored under `key`, refreshing its recency.
    pub(crate) fn get(&mut self, key: &str) -> Option<&V> {
        let slot = self.entries.get_mut(key)?;
        self.tick += 1;
        self.recency.remove(&slot.stamp);
        slot.stamp = self.tick;
        self.recency.insert(self.tick, key.to_string());
        Some(&slot.value)
    }

    /// Store `value` under `key` at `weight`, in this order:
    ///
    /// 1. an existing entry for `key` is replaced (dropped without
    ///    counting as an eviction);
    /// 2. an entry heavier than the whole budget is refused and
    ///    reported as one eviction of its own weight;
    /// 3. least-recently-used residents are evicted until the total
    ///    fits the budget (the new entry, being the most recent and
    ///    within budget on its own, always survives).
    ///
    /// Returns what was evicted or refused.
    pub(crate) fn insert(&mut self, key: &str, value: V, weight: u64) -> Evicted {
        if let Some(old) = self.entries.remove(key) {
            self.recency.remove(&old.stamp);
            self.total -= old.weight;
        }
        let mut evicted = Evicted::default();
        if weight > self.budget {
            evicted.count = 1;
            evicted.weight = weight;
            return evicted;
        }
        self.tick += 1;
        self.entries.insert(key.to_string(), Slot { value, weight, stamp: self.tick });
        self.recency.insert(self.tick, key.to_string());
        self.total += weight;
        while self.total > self.budget {
            let Some((_, victim)) = self.recency.pop_first() else { break };
            if let Some(dropped) = self.entries.remove(&victim) {
                self.total -= dropped.weight;
                evicted.count += 1;
                evicted.weight += dropped.weight;
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_linalg::rng::rng_from_seed;
    use rand::Rng;

    /// Brute-force reference: residents in a `Vec`, least recent first.
    struct Model {
        residents: Vec<(String, u32, u64)>,
        budget: u64,
        evicted: Evicted,
    }

    impl Model {
        fn total(&self) -> u64 {
            self.residents.iter().map(|r| r.2).sum()
        }

        fn get(&mut self, key: &str) -> Option<u32> {
            let at = self.residents.iter().position(|r| r.0 == key)?;
            let resident = self.residents.remove(at);
            let value = resident.1;
            self.residents.push(resident);
            Some(value)
        }

        fn insert(&mut self, key: &str, value: u32, weight: u64) {
            self.residents.retain(|r| r.0 != key);
            if weight > self.budget {
                self.evicted.count += 1;
                self.evicted.weight += weight;
                return;
            }
            self.residents.push((key.to_string(), value, weight));
            while self.total() > self.budget {
                let (_, _, w) = self.residents.remove(0);
                self.evicted.count += 1;
                self.evicted.weight += w;
            }
        }
    }

    /// Drive the store and the model with one seeded random sequence of
    /// `get`/`insert` calls over a small key space (so re-inserts and
    /// hits are frequent) and compare them after every operation.
    fn check_against_model(seed: u64, budget: u64, weight: impl Fn(&mut rand::rngs::StdRng) -> u64) {
        let mut rng = rng_from_seed(seed);
        let mut lru: Lru<u32> = Lru::new(budget);
        let mut model = Model { residents: Vec::new(), budget, evicted: Evicted::default() };
        let mut evicted = Evicted::default();
        for step in 0..600u32 {
            let key = format!("k{}", rng.gen_range(0..12u32));
            if rng.gen_bool(0.4) {
                assert_eq!(lru.get(&key).copied(), model.get(&key), "seed {seed} step {step}: get {key}");
            } else {
                let w = weight(&mut rng);
                let e = lru.insert(&key, step, w);
                evicted.count += e.count;
                evicted.weight += e.weight;
                model.insert(&key, step, w);
            }
            let residents: Vec<(String, u32, u64)> = lru
                .recency
                .values()
                .map(|k| {
                    let slot = &lru.entries[k];
                    (k.clone(), slot.value, slot.weight)
                })
                .collect();
            assert_eq!(residents.len(), lru.len(), "seed {seed} step {step}: queue and map skewed");
            assert_eq!(residents, model.residents, "seed {seed} step {step}: residents or order");
            assert_eq!(lru.total(), model.total(), "seed {seed} step {step}: total weight");
            assert_eq!(evicted, model.evicted, "seed {seed} step {step}: evicted count/weight");
            assert!(lru.total() <= budget);
        }
    }

    #[test]
    fn matches_reference_model_in_entry_count_mode() {
        for (seed, cap) in [(1, 0), (2, 1), (3, 3), (4, 8)] {
            check_against_model(seed, cap, |_| 1);
        }
    }

    #[test]
    fn matches_reference_model_in_byte_budget_mode() {
        for (seed, budget) in [(11, 0), (12, 40), (13, 100), (14, 257)] {
            // Weights include 0 and entries larger than the budget.
            check_against_model(seed, budget, |rng| match rng.gen_range(0..10u32) {
                0 => 0,
                1 => 300,
                _ => rng.gen_range(1..80u64),
            });
        }
    }

    #[test]
    fn oversized_reinsert_drops_the_old_entry_and_counts_the_refusal() {
        let mut lru: Lru<&str> = Lru::new(10);
        assert_eq!(lru.insert("a", "small", 4), Evicted::default());
        assert_eq!(lru.insert("a", "huge", 11), Evicted { count: 1, weight: 11 });
        assert_eq!((lru.len(), lru.total()), (0, 0));
        assert!(lru.get("a").is_none());
    }
}
