//! Content-addressed memoisation of planning decisions.
//!
//! Every hot-spot entry runs the same pure pipeline: Molecule selection
//! ([`GreedySelector`](crate::GreedySelector)) followed by Atom scheduling
//! (FSFR/ASF/SJF/HEF). Its output — the selected variants, the Atom
//! loading sequence and the plan's supremum — is a deterministic function
//! of the scheduler kind, the demand profile, the usable-container count,
//! the available-Atom multiset, the foreign-pressure vector and the SI
//! library. Encoder traces re-enter the same hot spots with recurring
//! fabric states frame after frame, and sweeps / the job server re-derive
//! identical plans across thousands of near-identical jobs, so the
//! [`PlanCache`] memoises the full decision under a canonical key: a hit
//! hands back *exactly* the decision the planner would have produced, and
//! the arbiter applies a hit and a fresh decision through one function.
//! Bit-identity holds by construction, because the cache stores and
//! verifies the complete key material (a 64-bit collision degrades to a
//! miss, never to a wrong plan).
//!
//! # Key derivation
//!
//! The key is a sequence of `u64` words holding exactly what the
//! arbiter's `decide` reads, in order: the cache namespace (config hash
//! XOR library fingerprint), the scheduler kind, the fabric **epoch**, the
//! tenant count and application index, the explain flag, the usable/total
//! container counts (the quantized time-budget class of the plan), the
//! demand suprema `(SiId, expected)` pairs, the available-Atom multiset
//! and the contention-pressure vector. Which container holds which Atom,
//! what is still loading and which tenant owns what are not key words:
//! `decide` never reads them, so two fabrics holding the same multiset in
//! different containers share one plan. The side effects of applying a
//! plan that do read the containers (cross-app reuse, the load queue) run
//! live on a hit exactly as on a miss.
//!
//! The digest folds one word per step (rotate, XOR, multiply by an odd
//! constant) and ends in a 64-bit avalanche, so every key word reaches the
//! bits that pick the shard and the hash-map bucket. The shard maps take
//! the digest as their hash unchanged.
//!
//! # Epoch-based invalidation
//!
//! Structural fabric changes — a container quarantine, a permanent tile
//! failure — bump the fabric's epoch counter, which is embedded in every
//! key derived afterwards, so a plan computed before the change can never
//! be replayed after it. (Tenant count and container counts are key words
//! too, so tenant join/leave and a resized fabric separate keys by
//! construction even without an explicit bump.) Epochs only need to be
//! monotonic per arbiter; they are compared for key equality, never
//! ordered.
//!
//! # Sharding, eviction & determinism
//!
//! The cache is a fixed power-of-two array of `Mutex<HashMap>` shards
//! selected by digest bits, so concurrent sweep workers rarely contend.
//! Sharing a cache across threads cannot perturb results: a lookup only
//! ever returns a plan whose *entire* key material matches, and that plan
//! is bit-identical to what the planner would recompute, so run outcomes
//! are independent of which worker inserted first. Only the hit/miss
//! counters are racy under sharing; per-run private caches (the default)
//! keep even those deterministic.
//!
//! A full shard evicts one resident entry per new key. Each shard keeps
//! its digests in a slot list beside the map; the incoming digest picks
//! the victim's slot, the last slot moves into it and the newcomer takes
//! the last slot. The choice depends only on the sequence of digests, so
//! it is deterministic for a private cache, and a working set larger than
//! the bound keeps most of its hits (a cyclic one 1.4 times the bound,
//! about 60 %).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rispp_model::{AtomTypeId, Molecule, SiLibrary};

use crate::explain::{ScheduleExplain, SelectionExplain};
use crate::types::SelectedMolecule;

/// Number of independent `Mutex<HashMap>` shards (power of two).
const SHARDS: usize = 16;

/// Entries per shard before each new key evicts a resident one (16 Ki
/// entries in all). This is a memory bound, not a working set: one
/// benchmark fig7 pass (the 101-job sweep sharing one fresh cache)
/// inserts 18,716 decisions, and the 420 distinct requests of the
/// benchmark's serve mix need about 22 K, so both run with the cache full.
const DEFAULT_SHARD_CAPACITY: usize = 1024;

/// Start state of the key digest (the fractional digits of π).
const DIGEST_SEED: u64 = 0x243f_6a88_85a3_08d3;

/// Odd multiplier of one digest step (2^64 divided by the golden ratio).
const DIGEST_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The digest of a plan key, folded one `u64` word per step.
#[derive(Debug)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(DIGEST_SEED)
    }

    /// Folds `word` into the state. With the state fixed the step is a
    /// bijection of the word, and with the word fixed a bijection of the
    /// state, so two keys of equal length that differ in one word never
    /// share a digest.
    fn push(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(29) ^ word).wrapping_mul(DIGEST_MUL);
    }

    /// The digest: MurmurHash3's 64-bit finaliser over the state, so a
    /// change in any word can reach every output bit.
    fn finish(self) -> u64 {
        let mut hash = self.0;
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        hash ^ (hash >> 33)
    }
}

/// The digest of a whole plan key.
pub(crate) fn digest_words(words: &[u64]) -> u64 {
    let mut digest = Digest::new();
    for &word in words {
        digest.push(word);
    }
    digest.finish()
}

/// Hasher of the shard maps. Their keys are digests already, so the
/// digest is the hash.
#[derive(Debug, Default, Clone, Copy)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("plan-cache maps are keyed by u64 digests");
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }
}

/// A planning decision: everything the arbiter derives from a plan key —
/// the selected Molecule variants, the Atom loading sequence the scheduler
/// produced (FSFR/ASF/SJF/**HEF ordering** preserved verbatim) and the
/// plan's supremum, plus the explain records when the deciding context had
/// decision capture on.
#[derive(Debug)]
pub(crate) struct PlannedDecision {
    /// The full key material the decision was planned under (empty without
    /// a cache), verified on lookup so a digest collision degrades to a
    /// miss.
    pub(crate) key: Box<[u64]>,
    pub(crate) selected: Vec<SelectedMolecule>,
    pub(crate) atoms: Vec<AtomTypeId>,
    pub(crate) supremum: Molecule,
    /// Present iff the key's explain flag was set: the explain records are
    /// themselves pure functions of the key material, so replaying them on
    /// a hit is bit-identical to recomputing them.
    pub(crate) explain: Option<Box<(SelectionExplain, ScheduleExplain)>>,
}

/// Deterministic per-run plan-cache counters, surfaced through
/// [`FabricArbiter::plan_cache_stats`](crate::FabricArbiter::plan_cache_stats)
/// and fed to the telemetry layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that replayed a memoised decision.
    pub hits: u64,
    /// Lookups that fell through to the planner.
    pub misses: u64,
    /// Decisions inserted after a miss.
    pub insertions: u64,
    /// Entries dropped by shard-capacity eviction, as observed by this
    /// run's insertions.
    pub evictions: u64,
    /// Fabric-epoch bumps (quarantine / permanent failure) that
    /// invalidated every previously cached plan for that fabric.
    pub epoch_bumps: u64,
}

impl PlanCacheStats {
    /// Total lookups (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no lookups happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Whether every counter is zero (cache disabled or never consulted).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == PlanCacheStats::default()
    }

    /// Accumulates `other` into `self` (telemetry merges).
    pub fn merge(&mut self, other: &PlanCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.epoch_bumps += other.epoch_bumps;
    }
}

/// One shard: memoised decisions by digest, plus the same digests in a
/// slot list from which a full shard picks its eviction victim.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Arc<PlannedDecision>, BuildHasherDefault<DigestHasher>>,
    slots: Vec<u64>,
}

impl Shard {
    /// Memoises `decision` under `hash`, returning how many entries it
    /// evicted (at most one): a new key in a full shard evicts the entry
    /// in slot `hash % capacity`, the last slot's entry moves there and
    /// the new key takes the last slot.
    fn insert(&mut self, hash: u64, decision: Arc<PlannedDecision>, capacity: usize) -> u64 {
        if let Some(entry) = self.map.get_mut(&hash) {
            *entry = decision;
            return 0;
        }
        let mut evicted = 0;
        if self.slots.len() >= capacity {
            let slot = (hash % self.slots.len() as u64) as usize;
            let victim = self.slots.swap_remove(slot);
            self.map.remove(&victim);
            evicted = 1;
        }
        self.slots.push(hash);
        self.map.insert(hash, decision);
        evicted
    }
}

/// Locks `shard`, taking it over from a thread that panicked holding it.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sharded, read-mostly, content-addressed cache of planning decisions.
///
/// One instance may be private to a run (the default — deterministic
/// counters at any thread count), shared across the jobs of a
/// `SweepRunner`, or shared across the requests of a `rispp-serve` daemon
/// (namespaced by config hash via [`PlanCacheHandle::with_namespace`]).
/// See the module docs for the determinism argument.
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(SHARDS * DEFAULT_SHARD_CAPACITY)
    }
}

impl PlanCache {
    /// Creates a cache holding up to roughly `capacity` decisions
    /// (rounded up to a whole number of shards, minimum one per shard).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard> {
        // Bits 32..36 pick the shard; the map reads the low bits (bucket)
        // and the top seven (control tag), so the three stay independent.
        lock(&self.shards[(hash >> 32) as usize & (SHARDS - 1)])
    }

    /// Looks up the decision memoised under `key_words` (digest `hash`),
    /// verifying the *full* key material so a digest collision degrades to
    /// a miss. Alloc-free.
    pub(crate) fn lookup(&self, key_words: &[u64], hash: u64) -> Option<Arc<PlannedDecision>> {
        match self.shard(hash).map.get(&hash) {
            Some(entry) if entry.key.as_ref() == key_words => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(entry))
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoises `decision` under `hash`, the digest of its key, returning
    /// the number of entries evicted to make room: one when a new key
    /// arrives at a full shard, otherwise none.
    pub(crate) fn insert(&self, hash: u64, decision: Arc<PlannedDecision>) -> u64 {
        let evicted = self.shard(hash).insert(hash, decision, self.shard_capacity);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Number of memoised decisions across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// Most decisions the cache holds: the capacity it was created with,
    /// rounded up to a whole number of shards.
    #[must_use]
    pub fn capacity(&self) -> usize {
        SHARDS * self.shard_capacity
    }

    /// Whether the cache holds no decisions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoised decision (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = lock(shard);
            shard.map.clear();
            shard.slots.clear();
        }
    }

    /// Lifetime totals across every user of this cache instance —
    /// **racy under sharing** (gauges for the serve metrics endpoint);
    /// use the per-run [`PlanCacheStats`] for deterministic numbers.
    #[must_use]
    pub fn totals(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            epoch_bumps: 0,
        }
    }
}

/// A reference to a (possibly shared) [`PlanCache`] plus the namespace
/// word folded into every key derived through it. Namespacing keeps
/// different configurations (serve: different config hashes; sweeps:
/// different jobs only where their planning inputs genuinely differ)
/// from colliding while letting identical configurations share plans.
#[derive(Debug, Clone)]
pub struct PlanCacheHandle {
    cache: Arc<PlanCache>,
    namespace: u64,
}

impl Default for PlanCacheHandle {
    fn default() -> Self {
        PlanCacheHandle::new(Arc::new(PlanCache::default()))
    }
}

impl PlanCacheHandle {
    /// Wraps `cache` with the default (zero) namespace.
    #[must_use]
    pub fn new(cache: Arc<PlanCache>) -> Self {
        PlanCacheHandle {
            cache,
            namespace: 0,
        }
    }

    /// A handle over a fresh private cache — the intra-run default.
    #[must_use]
    pub fn private() -> Self {
        PlanCacheHandle::default()
    }

    /// Returns the handle with `namespace` folded into every key
    /// (`rispp-serve` uses the request's config hash).
    #[must_use]
    pub fn with_namespace(mut self, namespace: u64) -> Self {
        self.namespace = namespace;
        self
    }

    /// The namespace word.
    #[must_use]
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// The underlying cache.
    #[must_use]
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }
}

/// Digest of the structural content of `library` — folded into the key
/// namespace so two libraries with identical shapes but different
/// latencies/atom mixes can never share plans through a shared cache.
pub(crate) fn library_fingerprint(library: &SiLibrary) -> u64 {
    let mut digest = Digest::new();
    digest.push(library.arity() as u64);
    digest.push(library.len() as u64);
    for i in 0..library.len() {
        let def = library
            .si(rispp_model::SiId(i as u16))
            .expect("index within library");
        digest.push(u64::from(def.software_latency()));
        digest.push(def.variants().len() as u64);
        for variant in def.variants() {
            digest.push(u64::from(variant.latency));
            for &count in variant.atoms.counts() {
                digest.push(u64::from(count));
            }
        }
    }
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(key: &[u64]) -> Arc<PlannedDecision> {
        Arc::new(PlannedDecision {
            key: key.into(),
            selected: Vec::new(),
            atoms: vec![AtomTypeId(1), AtomTypeId(0)],
            supremum: Molecule::zero(2),
            explain: None,
        })
    }

    #[test]
    fn digest_matches_reference_vectors() {
        // Outputs of the definition (seed; per word: rotate left 29, XOR,
        // multiply; then MurmurHash3's fmix64) computed outside Rust, so a
        // change to the step, the seed or the finaliser is a deliberate one.
        assert_eq!(digest_words(&[]), 0x7acd_bb98_b134_4213);
        assert_eq!(digest_words(&[0]), 0x7e06_1f4e_3a99_cba3);
        assert_eq!(digest_words(&[1, 2, 3]), 0xa79c_4353_f75e_90d4);
        // Word order and key length both count.
        assert_ne!(digest_words(&[1, 2]), digest_words(&[2, 1]));
        assert_ne!(digest_words(&[0]), digest_words(&[0, 0]));
        // Folding word by word equals digesting the whole key.
        let mut digest = Digest::new();
        for word in [1, 2, 3] {
            digest.push(word);
        }
        assert_eq!(digest.finish(), digest_words(&[1, 2, 3]));
    }

    #[test]
    fn digest_spreads_every_word_bit() {
        // Equal-length keys that differ in one word never collide, and
        // flipping any one input bit flips about half the output bits,
        // so every key word reaches the shard and bucket bits.
        let base = [7u64, 0x1234_5678, 42, u64::MAX];
        let reference = digest_words(&base);
        let mut flipped_bits = 0u32;
        for word in 0..base.len() {
            for bit in 0..64 {
                let mut key = base;
                key[word] ^= 1 << bit;
                let diff = digest_words(&key) ^ reference;
                assert_ne!(diff, 0, "word {word} bit {bit} collides");
                flipped_bits += diff.count_ones();
            }
        }
        let mean = f64::from(flipped_bits) / (base.len() * 64) as f64;
        assert!((28.0..=36.0).contains(&mean), "mean flipped bits {mean}");
        // Consecutive one-word keys fill every shard about evenly.
        let mut per_shard = [0u32; SHARDS];
        for word in 0..16_384u64 {
            per_shard[(digest_words(&[word]) >> 32) as usize & (SHARDS - 1)] += 1;
        }
        assert!(
            per_shard.iter().all(|&n| (896..=1152).contains(&n)),
            "{per_shard:?}"
        );
    }

    #[test]
    fn lookup_verifies_full_key_material() {
        let cache = PlanCache::new(64);
        let key = [1u64, 2, 3];
        let hash = digest_words(&key);
        cache.insert(hash, decision(&key));
        assert!(cache.lookup(&key, hash).is_some());
        // Same digest, different material (simulated collision): miss.
        let other = [9u64, 9, 9];
        assert!(cache.lookup(&other, hash).is_none());
        let totals = cache.totals();
        assert_eq!((totals.hits, totals.misses), (1, 1));
    }

    #[test]
    fn full_shard_evicts_one_entry_per_new_key() {
        let capacity = SHARDS * 4;
        let cache = PlanCache::new(capacity);
        let mut resident: Vec<[u64; 1]> = Vec::new();
        let mut evicted_total = 0;
        for word in 0..1_000u64 {
            let key = [word];
            let hash = digest_words(&key);
            let shard_len = |cache: &PlanCache| cache.shard(hash).map.len();
            let before = shard_len(&cache);
            let evicted = cache.insert(hash, decision(&key));
            // A new key evicts exactly when its shard is full, and then
            // exactly one entry: the shard stays at its bound.
            assert_eq!(evicted, u64::from(before == 4), "key {word}");
            assert_eq!(shard_len(&cache), (before + 1).min(4));
            assert!(cache.len() <= capacity);
            evicted_total += evicted;
            resident.push(key);
        }
        assert_eq!(cache.capacity(), capacity);
        assert_eq!(cache.len(), capacity, "every shard ends full");
        assert_eq!(cache.totals().evictions, evicted_total);
        assert_eq!(evicted_total, 1_000 - capacity as u64);
        // Exactly the surviving keys hit, and each verifies its material.
        let hits = resident
            .iter()
            .filter(|key| cache.lookup(&key[..], digest_words(&key[..])).is_some())
            .count();
        assert_eq!(hits, capacity);
        // Re-inserting a resident key replaces it without evicting.
        let survivor = resident
            .iter()
            .find(|key| cache.lookup(&key[..], digest_words(&key[..])).is_some())
            .expect("a resident key");
        assert_eq!(
            cache.insert(digest_words(&survivor[..]), decision(&survivor[..])),
            0
        );
        assert_eq!(cache.len(), capacity);
    }

    #[test]
    fn a_working_set_over_the_bound_keeps_hitting() {
        // A cyclic working set 1.4 times the bound keeps most of its hits
        // (62 % of passes 5-8; the floor is 50 %).
        let capacity = SHARDS * 64;
        let cache = PlanCache::new(capacity);
        let keys: Vec<[u64; 2]> = (0..capacity as u64 * 14 / 10).map(|w| [w, 3]).collect();
        let mut hits = 0;
        for pass in 0..8 {
            for key in &keys {
                let hash = digest_words(key);
                if cache.lookup(key, hash).is_some() {
                    hits += u32::from(pass >= 4);
                } else {
                    cache.insert(hash, decision(key));
                }
            }
        }
        let rate = f64::from(hits) / (4 * keys.len()) as f64;
        assert!(rate > 0.5, "hit rate {rate}");
        assert_eq!(cache.len(), capacity);
    }

    #[test]
    fn namespaces_separate_keys() {
        // The namespace is the first key word: the same planning inputs
        // under another namespace digest differently and never hit.
        let cache = PlanCache::new(64);
        let (a, b) = ([7u64, 1, 2], [8u64, 1, 2]);
        assert_ne!(digest_words(&a), digest_words(&b));
        cache.insert(digest_words(&a), decision(&a));
        assert!(cache.lookup(&b, digest_words(&b)).is_none());
    }

    #[test]
    fn stats_merge_and_rates() {
        let mut a = PlanCacheStats {
            hits: 7,
            misses: 3,
            ..PlanCacheStats::default()
        };
        let b = PlanCacheStats {
            hits: 3,
            misses: 7,
            insertions: 7,
            evictions: 1,
            epoch_bumps: 2,
        };
        a.merge(&b);
        assert_eq!(a.lookups(), 20);
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert!(!a.is_zero());
        assert!(PlanCacheStats::default().is_zero());
    }
}
