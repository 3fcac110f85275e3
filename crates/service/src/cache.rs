//! The content-addressed result cache.
//!
//! Outcomes are memoized under the spec's [`SpecKey`]
//! ([`ctori_engine::RunSpec::canonical_key`]): two identical scenarios —
//! whether from the same client, different clients, or different positions
//! in a sweep — share one cached [`RunOutcome`].  The cache is bounded:
//! when full, the least-recently-used entry is evicted.  Every lookup and
//! eviction is counted, and the counters are what the `STATS` protocol
//! verb reports, so a client can *observe* that its duplicate submission
//! was served from cache.
//!
//! The cache is deliberately a plain single-threaded value; the server
//! shares it with the worker pool behind one mutex.
//!
//! Keys are FNV-1a digests, which are **not** collision-resistant: a
//! crafted spec pair could share a key, so serving a hit to a different
//! client assumes trusted submitters — the loopback-only deployments the
//! service targets.  See [`SpecKey`] for the full caveat.

use crate::stats::CacheStats;
use ctori_engine::{OutcomeCache, RunOutcome, SpecKey};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

struct Entry {
    outcome: Arc<RunOutcome>,
    last_used: u64,
}

/// A bounded least-recently-used map from [`SpecKey`] to [`RunOutcome`].
pub struct ResultCache {
    capacity: usize,
    entries: HashMap<SpecKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` outcomes.  A capacity of `0`
    /// disables caching entirely (every lookup is a miss, inserts are
    /// dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
        }
    }

    /// Looks up a memoized outcome, counting a hit or a miss and marking
    /// the entry as recently used.  Hands back a shared handle, so a hit
    /// never copies the outcome.
    pub fn get(&mut self, key: &SpecKey) -> Option<Arc<RunOutcome>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(&entry.outcome))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Memoizes an outcome, evicting the least-recently-used entry when at
    /// capacity.
    pub fn insert(&mut self, key: SpecKey, outcome: Arc<RunOutcome>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            // O(n) scan: the capacity bound is small (hundreds), and a
            // worker only reaches here once per *fresh* execution, whose
            // cost dwarfs the scan.
            if let Some(&lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&lru);
                self.evictions += 1;
            }
        }
        self.insertions += 1;
        self.entries.insert(
            key,
            Entry {
                outcome,
                last_used: self.tick,
            },
        );
    }

    /// Number of memoized outcomes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            insertions: self.insertions,
            entries: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

/// The server's [`OutcomeCache`]: the [`ResultCache`] behind one mutex,
/// because the pool probes and publishes from its worker threads.
pub(crate) struct SharedCache(Mutex<ResultCache>);

impl SharedCache {
    pub(crate) fn new(capacity: usize) -> SharedCache {
        SharedCache(Mutex::new(ResultCache::new(capacity)))
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.0.lock().expect("cache poisoned").stats()
    }
}

impl OutcomeCache for SharedCache {
    fn probe(&self, key: &SpecKey) -> Option<Arc<RunOutcome>> {
        self.0.lock().expect("cache poisoned").get(key)
    }

    fn publish(&self, key: SpecKey, outcome: &Arc<RunOutcome>) {
        self.0
            .lock()
            .expect("cache poisoned")
            .insert(key, Arc::clone(outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_engine::{RuleSpec, RunSpec, Runner, SeedSpec, TopologySpec};

    fn outcome(n: usize) -> (SpecKey, Arc<RunOutcome>) {
        let spec = RunSpec::new(
            TopologySpec::toroidal_mesh(3, 3),
            RuleSpec::parse("smp").unwrap(),
            SeedSpec::nodes(
                ctori_coloring::Color::new(1),
                ctori_coloring::Color::new(2),
                [n % 9],
            ),
        );
        (
            spec.canonical_key(),
            Arc::new(Runner::with_threads(1).execute(&spec)),
        )
    }

    #[test]
    fn hits_misses_and_lru_eviction() {
        let mut cache = ResultCache::new(2);
        let (k1, o1) = outcome(0);
        let (k2, o2) = outcome(1);
        let (k3, o3) = outcome(2);
        assert!(cache.get(&k1).is_none());
        cache.insert(k1, Arc::clone(&o1));
        assert_eq!(cache.get(&k1).as_deref(), Some(&*o1));
        cache.insert(k2, o2);
        // Touch k1 so k2 is the LRU entry when k3 forces an eviction.
        assert!(cache.get(&k1).is_some());
        cache.insert(k3, o3);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&k1).is_some(), "recently used survives");
        assert!(cache.get(&k2).is_none(), "LRU entry was evicted");
        assert!(cache.get(&k3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, 2);
    }

    #[test]
    fn reinsert_updates_without_eviction() {
        let mut cache = ResultCache::new(1);
        let (k1, o1) = outcome(3);
        cache.insert(k1, Arc::clone(&o1));
        cache.insert(k1, o1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().insertions, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0);
        let (k1, o1) = outcome(4);
        cache.insert(k1, o1);
        assert!(cache.is_empty());
        assert!(cache.get(&k1).is_none());
        assert_eq!(cache.stats().misses, 1);
    }
}
