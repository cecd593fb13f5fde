//! Bounded LRU cache for warm traces.
//!
//! Named workloads re-run the paper's CIF encoder on every materialise
//! — tens of milliseconds per job that the daemon would otherwise pay
//! again for every submission of the same workload. The cache keys on
//! the canonical trace payload string (collision-proof: the key *is*
//! the content), holds `Arc`s so hits are O(1) clones, and evicts the
//! least-recently-used entry at capacity so a scan over many distinct
//! traces cannot grow the daemon without bound.
//!
//! Only executing workers touch the cache: admission (and therefore
//! rejection) never reads or writes it, which the admission proptests
//! assert via the hit/miss counters.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

struct LruState<V> {
    entries: HashMap<String, (u64, Arc<V>)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// A thread-safe, bounded, least-recently-used cache from canonical
/// payload strings to shared values.
pub struct LruCache<V> {
    state: Mutex<LruState<V>>,
    capacity: usize,
}

impl<V> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries (clamped ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            state: Mutex::new(LruState {
                entries: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Returns the cached value for `key`, or builds, inserts and
    /// returns it via `make`. `make` runs *outside* the cache lock so a
    /// slow trace materialisation never blocks other workers' lookups;
    /// two concurrent misses on the same key may both build, and the
    /// second insert wins — wasteful but correct, and only possible in
    /// a race window the steady state never sees.
    ///
    /// # Errors
    ///
    /// Propagates `make`'s error without touching the cache.
    pub fn get_or_try_insert<E>(
        &self,
        key: &str,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        {
            let mut state = self.state.lock().expect("cache poisoned");
            state.tick += 1;
            let tick = state.tick;
            if let Some((stamp, value)) = state.entries.get_mut(key) {
                *stamp = tick;
                let value = Arc::clone(value);
                state.hits += 1;
                return Ok(value);
            }
            state.misses += 1;
        }
        let value = Arc::new(make()?);
        let mut state = self.state.lock().expect("cache poisoned");
        state.tick += 1;
        let tick = state.tick;
        if state.entries.len() >= self.capacity && !state.entries.contains_key(key) {
            if let Some(oldest) = state
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                state.entries.remove(&oldest);
            }
        }
        state
            .entries
            .insert(key.to_owned(), (tick, Arc::clone(&value)));
        Ok(value)
    }

    /// `(hits, misses)` since creation.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        let state = self.state.lock().expect("cache poisoned");
        (state.hits, state.misses)
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache poisoned").entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let cache: LruCache<u32> = LruCache::new(4);
        let a = cache.get_or_try_insert::<()>("a", || Ok(1)).unwrap();
        assert_eq!(*a, 1);
        let a2 = cache
            .get_or_try_insert::<()>("a", || panic!("must hit"))
            .unwrap();
        assert_eq!(*a2, 1);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache: LruCache<u32> = LruCache::new(2);
        cache.get_or_try_insert::<()>("a", || Ok(1)).unwrap();
        cache.get_or_try_insert::<()>("b", || Ok(2)).unwrap();
        // Touch `a` so `b` is now the LRU entry.
        cache
            .get_or_try_insert::<()>("a", || panic!("must hit"))
            .unwrap();
        cache.get_or_try_insert::<()>("c", || Ok(3)).unwrap();
        assert_eq!(cache.len(), 2);
        // `a` survived, `b` was evicted.
        cache
            .get_or_try_insert::<()>("a", || panic!("must hit"))
            .unwrap();
        let rebuilt = cache.get_or_try_insert::<()>("b", || Ok(22)).unwrap();
        assert_eq!(*rebuilt, 22);
    }

    #[test]
    fn build_errors_leave_no_entry() {
        let cache: LruCache<u32> = LruCache::new(2);
        assert!(cache.get_or_try_insert("a", || Err("nope")).is_err());
        assert!(cache.is_empty());
        // A later successful build works and counts a second miss.
        cache.get_or_try_insert::<()>("a", || Ok(7)).unwrap();
        assert_eq!(cache.stats(), (0, 2));
    }
}
