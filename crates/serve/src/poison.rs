//! Per-config panic quarantine (the poison list).
//!
//! A panic inside a simulation is caught at the job boundary
//! (`catch_unwind`), so one crashing job never takes the daemon down —
//! but a config that *deterministically* panics would otherwise burn a
//! worker on every retry forever. The poison list counts panics per
//! config hash; at the threshold the hash is quarantined and further
//! jobs with that config are refused up front with `status:"poisoned"`,
//! keeping the pathological config from starving well-behaved tenants.
//!
//! Successful completions reset the count: a config that panicked
//! transiently (and then succeeded on retry) does not creep toward
//! quarantine across unrelated submissions.

use std::collections::HashMap;
use std::sync::Mutex;

/// Quarantine bookkeeping keyed by config hash.
pub struct PoisonList {
    counts: Mutex<HashMap<u64, u32>>,
    threshold: u32,
}

impl PoisonList {
    /// Creates a list quarantining a config after `threshold`
    /// consecutive panics (clamped ≥ 1).
    #[must_use]
    pub fn new(threshold: u32) -> Self {
        PoisonList {
            counts: Mutex::new(HashMap::new()),
            threshold: threshold.max(1),
        }
    }

    /// The quarantine threshold.
    #[must_use]
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Whether `config_hash` is quarantined.
    #[must_use]
    pub fn is_poisoned(&self, config_hash: u64) -> bool {
        self.counts
            .lock()
            .expect("poison list poisoned")
            .get(&config_hash)
            .is_some_and(|&n| n >= self.threshold)
    }

    /// Records one panic against `config_hash`; returns `true` when this
    /// panic tipped the config into quarantine.
    pub fn record_panic(&self, config_hash: u64) -> bool {
        let mut counts = self.counts.lock().expect("poison list poisoned");
        let n = counts.entry(config_hash).or_insert(0);
        *n += 1;
        *n == self.threshold
    }

    /// Records a successful completion: clears the panic count unless
    /// the config is already quarantined (quarantine is sticky — a
    /// lucky success after the threshold does not resurrect the config).
    pub fn record_success(&self, config_hash: u64) {
        let mut counts = self.counts.lock().expect("poison list poisoned");
        if counts
            .get(&config_hash)
            .is_some_and(|&n| n < self.threshold)
        {
            counts.remove(&config_hash);
        }
    }

    /// Number of quarantined configs.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.counts
            .lock()
            .expect("poison list poisoned")
            .values()
            .filter(|&&n| n >= self.threshold)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantines_at_threshold() {
        let list = PoisonList::new(3);
        assert!(!list.record_panic(7));
        assert!(!list.record_panic(7));
        assert!(!list.is_poisoned(7));
        assert!(list.record_panic(7));
        assert!(list.is_poisoned(7));
        assert_eq!(list.quarantined(), 1);
        // Further panics don't re-report the quarantine edge.
        assert!(!list.record_panic(7));
    }

    #[test]
    fn success_resets_pre_threshold_counts() {
        let list = PoisonList::new(2);
        list.record_panic(1);
        list.record_success(1);
        assert!(!list.record_panic(1), "count must have reset");
        assert!(!list.is_poisoned(1));
    }

    #[test]
    fn quarantine_is_sticky() {
        let list = PoisonList::new(1);
        list.record_panic(9);
        assert!(list.is_poisoned(9));
        list.record_success(9);
        assert!(list.is_poisoned(9), "success must not lift quarantine");
    }

    #[test]
    fn configs_are_independent() {
        let list = PoisonList::new(1);
        list.record_panic(1);
        assert!(list.is_poisoned(1));
        assert!(!list.is_poisoned(2));
    }
}
