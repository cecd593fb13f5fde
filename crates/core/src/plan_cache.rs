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
//! # Key layout
//!
//! The key is a slice of `u64` words holding exactly what the arbiter's
//! `decide` reads, packed so that two plan inputs share a key exactly when
//! they agree on all of it. In order:
//!
//! - the cache namespace (config hash XOR library fingerprint) and the
//!   fabric **epoch**, one word each;
//! - two header words of four 16-bit lanes: the scheduler kind with the
//!   explain flag, the tenant count, the application index, the usable and
//!   total container counts (the quantized time-budget class of the plan),
//!   and the numbers of demands, Atom types and contention-pressure
//!   entries. A field that does not fit its lane (65,535 or more) stores
//!   the all-ones lane and follows the header as a full word;
//! - the demanded SI ids, four lanes per word, then their expected
//!   executions, one word each;
//! - the available-Atom multiset (one count per Atom type), four lanes per
//!   word;
//! - the contention-pressure vector, one word each.
//!
//! The last word of a lane list pads with zero lanes; the header's lengths
//! say where each list ends. Which container holds which Atom, what is
//! still loading and which tenant owns what are not key material:
//! `decide` never reads them, so two fabrics holding the same multiset in
//! different containers share one plan. The side effects of applying a
//! plan that do read the containers (cross-app reuse, the load queue) run
//! live on a hit exactly as on a miss.
//!
//! # Entry layout
//!
//! A memoised decision is one `Arc` around one boxed word slice, two heap
//! blocks in all. The slice begins with a header of three 16-bit lanes
//! (the key's word count, the number of selected Molecules and the length
//! of the Atom loading sequence, spilled to full words like the key's
//! fields), then holds the key material, the selection as (SI id, variant
//! index) lane pairs, two Molecules per word, and the Atom loading
//! sequence, four Atom ids per word. Variant indices fit their lane because
//! `SiLibraryBuilder::build` refuses more than 65,536 Molecules per SI.
//! The plan's supremum is not stored: applying the decision recomputes it
//! from the selection. When the decision was explained, its selection and
//! schedule records sit beside the slice as two `Arc`s, which every
//! `DecisionExplain` replayed from the entry shares.
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

use rispp_model::{AtomTypeId, Molecule, SiId, SiLibrary};

use crate::explain::{ScheduleExplain, SelectionExplain};
use crate::scheduler::SchedulerKind;
use crate::types::SelectedMolecule;

/// Number of independent `Mutex<HashMap>` shards (power of two).
const SHARDS: usize = 16;

/// Entries per shard before each new key evicts a resident one (32 Ki
/// entries in all). This is a memory bound: at about 223 heap bytes an
/// entry (the tier-1 `plan_cache_bytes` pin), a full cache holds about
/// 7.3 MB. Both working sets of the benchmark fit it: one fig7 pass (the
/// 101-job sweep sharing one fresh cache) inserts 18,716 decisions, and
/// the 420 distinct requests of the serve mix need about 22 K.
const DEFAULT_SHARD_CAPACITY: usize = 2048;

/// 16-bit lanes per packed word.
const LANES: usize = 4;

/// The lane of a header field too large for it; the field follows the
/// header words in full.
const SPILLED: u16 = u16::MAX;

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

/// Appends `values` four to a word, lowest lane first; the unused lanes of
/// the last word are zero.
fn push_lanes(words: &mut Vec<u64>, values: impl IntoIterator<Item = u16>) {
    let mut word = 0u64;
    let mut lane = 0;
    for value in values {
        word |= u64::from(value) << (16 * lane);
        lane += 1;
        if lane == LANES {
            words.push(word);
            (word, lane) = (0, 0);
        }
    }
    if lane > 0 {
        words.push(word);
    }
}

/// Lane `index` of a lane list that [`push_lanes`] wrote at the start of
/// `words`.
fn lane(words: &[u64], index: usize) -> u16 {
    (words[index / LANES] >> (16 * (index % LANES))) as u16
}

/// Whether a header field is too large for its lane.
fn spills(field: u64) -> bool {
    field >= u64::from(SPILLED)
}

/// Appends `fields` as a header: one lane each, then every field too large
/// for its lane as a full word, in field order.
fn push_header(words: &mut Vec<u64>, fields: &[u64]) {
    push_lanes(
        words,
        fields
            .iter()
            .map(|&field| u16::try_from(field).unwrap_or(SPILLED)),
    );
    words.extend(fields.iter().filter(|&&field| spills(field)));
}

/// Words a header of `fields` takes.
fn header_len(fields: &[u64]) -> usize {
    fields.len().div_ceil(LANES) + fields.iter().filter(|&&field| spills(field)).count()
}

/// Reads the header of `N` fields that [`push_header`] wrote at the start
/// of `words`: the fields and the number of words it takes.
fn read_header<const N: usize>(words: &[u64]) -> ([u64; N], usize) {
    let mut fields = [0; N];
    let mut end = N.div_ceil(LANES);
    for (index, field) in fields.iter_mut().enumerate() {
        *field = match lane(words, index) {
            SPILLED => {
                end += 1;
                words[end - 1]
            }
            lane => u64::from(lane),
        };
    }
    (fields, end)
}

/// Everything the arbiter's `decide` reads: the inputs of one plan key.
#[derive(Debug)]
pub(crate) struct PlanKey<'a> {
    /// The handle's namespace XOR the library fingerprint.
    pub(crate) namespace: u64,
    pub(crate) scheduler: SchedulerKind,
    pub(crate) epoch: u64,
    pub(crate) tenants: usize,
    pub(crate) app: usize,
    pub(crate) explain: bool,
    pub(crate) usable: u16,
    pub(crate) containers: u16,
    /// `(SI, expected executions)` in the order the hot spot lists them.
    pub(crate) demands: &'a [(SiId, u64)],
    /// The available-Atom multiset: one count per Atom type.
    pub(crate) available: &'a [u16],
    pub(crate) pressure: &'a [u64],
}

impl PlanKey<'_> {
    /// Appends the packed key material (see the module docs for the
    /// layout) to `key`.
    pub(crate) fn write(&self, key: &mut Vec<u64>) {
        key.push(self.namespace);
        key.push(self.epoch);
        push_header(
            key,
            &[
                (self.scheduler as u64) << 1 | u64::from(self.explain),
                self.tenants as u64,
                self.app as u64,
                u64::from(self.usable),
                u64::from(self.containers),
                self.demands.len() as u64,
                self.available.len() as u64,
                self.pressure.len() as u64,
            ],
        );
        push_lanes(key, self.demands.iter().map(|&(si, _)| si.0));
        key.extend(self.demands.iter().map(|&(_, expected)| expected));
        push_lanes(key, self.available.iter().copied());
        key.extend_from_slice(self.pressure);
    }
}

/// A planning decision: everything the arbiter derives from a plan key —
/// the selected Molecule variants and the Atom loading sequence the
/// scheduler produced (FSFR/ASF/SJF/**HEF ordering** preserved verbatim),
/// packed with the key into one word slice (see the module docs for the
/// layout), plus the explain records when the deciding context had
/// decision capture on.
#[derive(Debug)]
pub(crate) struct PlannedDecision {
    /// Header, key material (empty without a cache; verified on lookup so
    /// a digest collision degrades to a miss), selection and Atom sequence.
    words: Box<[u64]>,
    /// Present iff the key's explain flag was set: the explain records are
    /// themselves pure functions of the key material, so replaying them on
    /// a hit is bit-identical to recomputing them.
    pub(crate) explain: Option<(Arc<SelectionExplain>, Arc<ScheduleExplain>)>,
}

impl PlannedDecision {
    /// Packs `key`, `selected` and `atoms` into one allocation.
    ///
    /// # Panics
    ///
    /// Panics if a variant index exceeds 65,535, which
    /// `SiLibraryBuilder::build` rules out.
    pub(crate) fn new(
        key: &[u64],
        selected: &[SelectedMolecule],
        atoms: impl ExactSizeIterator<Item = AtomTypeId>,
        explain: Option<(Arc<SelectionExplain>, Arc<ScheduleExplain>)>,
    ) -> Self {
        let lengths = [key.len() as u64, selected.len() as u64, atoms.len() as u64];
        let len = header_len(&lengths)
            + key.len()
            + selected.len().div_ceil(LANES / 2)
            + atoms.len().div_ceil(LANES);
        let mut words = Vec::with_capacity(len);
        push_header(&mut words, &lengths);
        words.extend_from_slice(key);
        push_lanes(
            &mut words,
            selected.iter().flat_map(|s| {
                let variant =
                    u16::try_from(s.variant_index).expect("at most 65,536 Molecules per SI");
                [s.si.0, variant]
            }),
        );
        push_lanes(&mut words, atoms.map(|atom| atom.0));
        debug_assert_eq!(words.len(), len);
        PlannedDecision {
            words: words.into_boxed_slice(),
            explain,
        }
    }

    /// The header fields `[key words, selected Molecules, Atoms]` and the
    /// word where the key begins.
    fn header(&self) -> ([usize; 3], usize) {
        let (fields, start) = read_header::<3>(&self.words);
        (fields.map(|field| field as usize), start)
    }

    /// The key material the decision was planned under.
    pub(crate) fn key(&self) -> &[u64] {
        let ([key, _, _], start) = self.header();
        &self.words[start..start + key]
    }

    /// The selected Molecules.
    pub(crate) fn selected(&self) -> impl ExactSizeIterator<Item = SelectedMolecule> + '_ {
        let ([key, selected, _], start) = self.header();
        let words = &self.words[start + key..];
        (0..selected).map(move |i| {
            SelectedMolecule::new(
                SiId(lane(words, 2 * i)),
                usize::from(lane(words, 2 * i + 1)),
            )
        })
    }

    /// The Atom loading sequence, in the scheduler's order.
    pub(crate) fn atoms(&self) -> impl ExactSizeIterator<Item = AtomTypeId> + '_ {
        let ([key, selected, atoms], start) = self.header();
        let words = &self.words[start + key + selected.div_ceil(LANES / 2)..];
        (0..atoms).map(move |i| AtomTypeId(lane(words, i)))
    }

    /// Writes the plan's supremum `sup(M)` into `out`: the union of the
    /// selected Molecules over `library`, zero when nothing is selected.
    pub(crate) fn supremum_into(&self, library: &SiLibrary, out: &mut Molecule) {
        *out = Molecule::zero(library.arity());
        for s in self.selected() {
            let si = library.si(s.si).expect("selected SI within library");
            out.union_assign(&si.variants()[s.variant_index].atoms);
        }
    }
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
            Some(entry) if entry.key() == key_words => {
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
    use proptest::prelude::*;

    fn decision(key: &[u64]) -> Arc<PlannedDecision> {
        Arc::new(PlannedDecision::new(
            key,
            &[],
            [AtomTypeId(1), AtomTypeId(0)].into_iter(),
            None,
        ))
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

    /// Owned inputs of one plan key.
    #[derive(Debug, Clone)]
    struct Inputs {
        namespace: u64,
        scheduler: SchedulerKind,
        epoch: u64,
        tenants: usize,
        app: usize,
        explain: bool,
        usable: u16,
        containers: u16,
        demands: Vec<(SiId, u64)>,
        available: Vec<u16>,
        pressure: Vec<u64>,
    }

    impl Inputs {
        fn packed(&self) -> Vec<u64> {
            let mut key = Vec::new();
            PlanKey {
                namespace: self.namespace,
                scheduler: self.scheduler,
                epoch: self.epoch,
                tenants: self.tenants,
                app: self.app,
                explain: self.explain,
                usable: self.usable,
                containers: self.containers,
                demands: &self.demands,
                available: &self.available,
                pressure: &self.pressure,
            }
            .write(&mut key);
            key
        }

        /// The key as one word per field: the reference the packed key
        /// must agree with.
        fn words(&self) -> Vec<u64> {
            let mut key = vec![
                self.namespace,
                self.scheduler as u64,
                self.epoch,
                self.tenants as u64,
                self.app as u64,
                u64::from(self.explain),
                u64::from(self.usable),
                u64::from(self.containers),
                self.demands.len() as u64,
            ];
            for &(si, expected) in &self.demands {
                key.extend([u64::from(si.0), expected]);
            }
            key.push(self.available.len() as u64);
            key.extend(self.available.iter().map(|&count| u64::from(count)));
            key.push(self.pressure.len() as u64);
            key.extend_from_slice(&self.pressure);
            key
        }
    }

    /// Reads a packed key back into one word per field: a reference
    /// decoder of the layout in the module docs.
    fn unpack(key: &[u64]) -> Vec<u64> {
        let (header, end) = read_header::<8>(&key[2..]);
        let [kind_explain, tenants, app, usable, containers, demands, arity, pressure] = header;
        let mut words = vec![
            key[0],
            kind_explain >> 1,
            key[1],
            tenants,
            app,
            kind_explain & 1,
            usable,
            containers,
            demands,
        ];
        let (demands, arity, pressure) = (demands as usize, arity as usize, pressure as usize);
        let ids = &key[2 + end..];
        let expected = &ids[demands.div_ceil(LANES)..];
        for (i, &expected) in expected[..demands].iter().enumerate() {
            words.extend([u64::from(lane(ids, i)), expected]);
        }
        let counts = &expected[demands..];
        words.push(arity as u64);
        words.extend((0..arity).map(|i| u64::from(lane(counts, i))));
        let rest = &counts[arity.div_ceil(LANES)..];
        assert_eq!(rest.len(), pressure, "the key ends with its pressure");
        words.push(pressure as u64);
        words.extend_from_slice(rest);
        words
    }

    /// A `u16` that is often one of the two values a header lane cannot
    /// hold directly.
    fn lane_value() -> impl Strategy<Value = u16> {
        (0u8..4, any::<u16>()).prop_map(|(edge, value)| match edge {
            0 => u16::MAX,
            1 => u16::MAX - 1,
            _ => value,
        })
    }

    /// Plan inputs: 0-8 demands, 1-70 Atom types, empty or full pressure,
    /// 1-4 tenants, usable containers up to the total.
    fn inputs() -> impl Strategy<Value = Inputs> {
        let header = (
            (any::<u64>(), any::<u64>()),
            (0usize..4, any::<bool>()),
            (1usize..=4, any::<prop::sample::Index>()),
            (lane_value(), any::<prop::sample::Index>()),
        );
        let lists = (
            prop::collection::vec((any::<u16>(), any::<u64>()), 0..9),
            prop::collection::vec(lane_value(), 1..71),
            (any::<bool>(), prop::collection::vec(any::<u64>(), 70)),
        );
        (header, lists).prop_map(
            |(
                ((namespace, epoch), (kind, explain), (tenants, app), (containers, usable)),
                (demands, available, (pressured, pressure)),
            )| Inputs {
                namespace,
                scheduler: SchedulerKind::ALL[kind],
                epoch,
                tenants,
                app: app.index(tenants),
                explain,
                usable: usable.index(usize::from(containers) + 1) as u16,
                containers,
                demands: demands.into_iter().map(|(si, e)| (SiId(si), e)).collect(),
                pressure: if pressured {
                    pressure[..available.len()].to_vec()
                } else {
                    Vec::new()
                },
                available,
            },
        )
    }

    /// `inputs` with one field changed the least it can be (`what` picks
    /// the field; 0 changes nothing), so a packing that dropped or
    /// truncated that field would give both the same key.
    fn nudge(inputs: &Inputs, what: u8, pick: usize) -> Inputs {
        let mut b = inputs.clone();
        let d = b.demands.len();
        match what {
            1 => b.namespace ^= 1,
            2 => b.epoch = b.epoch.wrapping_add(1),
            3 => b.scheduler = SchedulerKind::ALL[(b.scheduler as usize + 1 + pick % 3) % 4],
            4 => b.explain = !b.explain,
            5 => b.tenants += 1,
            6 => b.app = (b.app + 1) % b.tenants,
            7 => b.usable = ((u32::from(b.usable) + 1) % (u32::from(b.containers) + 1)) as u16,
            8 => {
                b.containers = b.containers.wrapping_add(1);
                b.usable = b.usable.min(b.containers);
            }
            9 => b.demands.push((SiId(0), 0)),
            10 => {
                b.demands.pop();
            }
            11 if d > 0 => b.demands[pick % d].0 .0 ^= 1 << (pick % 16),
            12 if d > 0 => b.demands[pick % d].1 ^= 1 << (pick % 64),
            13 if d > 1 => b.demands.swap(pick % d, (pick + 1) % d),
            14 => {
                b.available.push(0);
                if !b.pressure.is_empty() {
                    b.pressure.push(0);
                }
            }
            15 => {
                b.available.pop();
                b.pressure.truncate(b.available.len());
            }
            16 => {
                let i = pick % b.available.len();
                b.available[i] ^= 1 << (pick % 16);
            }
            17 => {
                b.pressure = if b.pressure.is_empty() {
                    vec![0; b.available.len()]
                } else {
                    Vec::new()
                };
            }
            18 if !b.pressure.is_empty() => {
                let i = pick % b.pressure.len();
                b.pressure[i] ^= 1 << (pick % 64);
            }
            _ => {}
        }
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn packed_keys_are_equal_exactly_when_their_inputs_are(
            a in inputs(),
            what in 0u8..19,
            pick in any::<usize>(),
        ) {
            let b = nudge(&a, what, pick);
            prop_assert_eq!(unpack(&a.packed()), a.words());
            prop_assert_eq!(unpack(&b.packed()), b.words());
            prop_assert_eq!(
                a.packed() == b.packed(),
                a.words() == b.words(),
                "{:?} vs {:?}",
                a,
                b
            );
        }

        #[test]
        fn an_entry_decodes_to_what_it_was_built_from(
            arity in 1usize..=70,
            molecules in prop::collection::vec(
                prop::collection::vec((any::<prop::sample::Index>(), 1u16..4), 1..4),
                1..6,
            ),
            picks in prop::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 5),
            atoms in prop::collection::vec(any::<prop::sample::Index>(), 0..42),
            key in prop::collection::vec(any::<u64>(), 0..31),
        ) {
            let library = library(arity, &molecules);
            let selected: Vec<SelectedMolecule> = (0..library.len())
                .filter_map(|i| {
                    let si = library.si(SiId(i as u16)).expect("in range");
                    let (chosen, pick) = picks[i];
                    chosen.then(|| SelectedMolecule::new(si.id(), pick.index(si.variants().len())))
                })
                .collect();
            let atoms: Vec<AtomTypeId> =
                atoms.iter().map(|atom| AtomTypeId(atom.index(arity) as u16)).collect();
            let decision = PlannedDecision::new(&key, &selected, atoms.iter().copied(), None);
            prop_assert_eq!(decision.key(), &key[..]);
            prop_assert_eq!(decision.selected().collect::<Vec<_>>(), selected.clone());
            prop_assert_eq!(decision.atoms().collect::<Vec<_>>(), atoms);
            let request = crate::ScheduleRequest::new(
                &library,
                selected,
                Molecule::zero(arity),
                vec![0; library.len()],
            )
            .expect("a valid selection");
            let mut supremum = Molecule::from_counts([7]);
            decision.supremum_into(&library, &mut supremum);
            prop_assert_eq!(supremum, request.supremum());
        }
    }

    /// A library of `arity` Atom types whose SI `i` offers the Molecules
    /// `molecules[i]`, each one `(Atom type, count)` on top of one Atom of
    /// type `i % arity` (duplicates are dropped).
    fn library(arity: usize, molecules: &[Vec<(prop::sample::Index, u16)>]) -> SiLibrary {
        let universe = rispp_model::AtomUniverse::from_types(
            (0..arity).map(|i| rispp_model::AtomTypeInfo::new(format!("A{i}"))),
        )
        .expect("unique names");
        let mut builder = rispp_model::SiLibraryBuilder::new(universe);
        for (i, variants) in molecules.iter().enumerate() {
            let mut si = builder
                .special_instruction(format!("S{i}"), 1_000)
                .expect("unique names");
            for (latency, &(atom, count)) in (1..).zip(variants) {
                let mut counts = vec![0u16; arity];
                counts[i % arity] = 1;
                counts[atom.index(arity)] += count;
                let _ = si.molecule(Molecule::from_counts(counts), latency);
            }
        }
        builder.build().expect("every SI has a Molecule")
    }

    #[test]
    fn entries_hold_the_largest_variant_and_empty_parts() {
        let selected = [
            SelectedMolecule::new(SiId(3), 65_535),
            SelectedMolecule::new(SiId(u16::MAX), 0),
            SelectedMolecule::new(SiId(0), 7),
        ];
        let atoms = [AtomTypeId(u16::MAX), AtomTypeId(0), AtomTypeId(5)];
        for (key, selected, atoms) in [
            (&[1u64, 2][..], &selected[..], &atoms[..]),
            (&[], &selected[..1], &atoms[..1]),
            (&[9], &[], &[]),
        ] {
            let decision = PlannedDecision::new(key, selected, atoms.iter().copied(), None);
            assert_eq!(decision.key(), key);
            assert_eq!(decision.selected().collect::<Vec<_>>(), selected);
            assert_eq!(decision.atoms().collect::<Vec<_>>(), atoms);
        }
    }

    #[test]
    fn header_fields_too_large_for_a_lane_keep_full_words() {
        // 65,535 and more spill to a full word after the header words;
        // smaller fields stay in their lane.
        let mut words = Vec::new();
        let fields = [65_534, 65_535, 0, 1 << 40, 3];
        push_header(&mut words, &fields);
        assert_eq!(words.len(), header_len(&fields));
        assert_eq!(words.len(), 2 + 2);
        assert_eq!(read_header::<5>(&words), (fields, 4));
        // A key of 65,536 Atom types with full pressure: the arity and the
        // pressure length spill, and the key still decodes.
        let inputs = Inputs {
            namespace: 1,
            scheduler: SchedulerKind::Hef,
            epoch: 2,
            tenants: 3,
            app: 2,
            explain: true,
            usable: u16::MAX,
            containers: u16::MAX,
            demands: vec![(SiId(u16::MAX), u64::MAX)],
            available: vec![u16::MAX; 65_536],
            pressure: vec![1; 65_536],
        };
        let key = inputs.packed();
        assert_eq!(unpack(&key), inputs.words());
        assert_eq!(key.len(), 2 + 2 + 4 + 1 + 1 + 16_384 + 65_536);
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
