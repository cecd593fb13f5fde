use std::collections::VecDeque;

use rispp_model::{AtomTypeId, AtomUniverse, Molecule};

use crate::container::{AtomContainer, ContainerId, ContainerState};
use crate::error::FabricError;
use crate::fault::{FaultModel, XorShift64};
use crate::port::ReconfigPortConfig;

/// Static configuration of a [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Number of Atom Containers (the paper sweeps 5–24).
    pub containers: u16,
    /// Reconfiguration-port parameters.
    pub port: ReconfigPortConfig,
}

impl FabricConfig {
    /// The prototype fabric with the given number of Atom Containers.
    #[must_use]
    pub fn prototype(containers: u16) -> Self {
        FabricConfig {
            containers,
            port: ReconfigPortConfig::prototype(),
        }
    }
}

/// Completion event: `atom` became usable at cycle `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadCompleted {
    /// The atom type that finished reconfiguring.
    pub atom: AtomTypeId,
    /// Container that now holds the atom.
    pub container: ContainerId,
    /// Absolute completion cycle.
    pub at: u64,
}

/// Everything that can happen on the fabric while time advances.
///
/// Written in chronological order by [`Fabric::advance_events_into`]. The
/// first variant is the only one a fault-free fabric ever produces; the
/// rest are injected by the [`FaultModel`] or by an explicit
/// [`Fabric::quarantine`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricEvent {
    /// An atom finished reconfiguring and is usable.
    Completed(LoadCompleted),
    /// A bitstream transfer was rejected (CRC abort or the target tile died
    /// mid-load); the container is empty and the port cycles are lost.
    LoadAborted {
        /// Atom whose load was rejected.
        atom: AtomTypeId,
        /// Container the load was streaming into.
        container: ContainerId,
        /// Cycle at which the abort was detected.
        at: u64,
    },
    /// An SEU corrupted a loaded atom; it left the available set and the
    /// container is [`ContainerState::Faulty`] until scrubbed (reloaded).
    AtomCorrupted {
        /// The corrupted atom type.
        atom: AtomTypeId,
        /// Container holding the corrupted configuration.
        container: ContainerId,
        /// Cycle of the upset.
        at: u64,
    },
    /// A container's tile failed permanently and was quarantined.
    ContainerFailed {
        /// The quarantined container.
        container: ContainerId,
        /// Cycle of the failure.
        at: u64,
    },
}

/// One entry in the fabric's optional container-transition journal.
///
/// Unlike [`FabricEvent`] — which reports only what the run-time manager
/// must *react* to — the journal records every container state transition,
/// including load *starts*, so observers can reconstruct the full
/// load→ready→faulty timeline of each Atom Container (e.g. for Perfetto
/// trace export). Disabled by default; see [`Fabric::set_journal_enabled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricJournalEntry {
    /// A bitstream transfer began streaming into `container` at `at` and
    /// will occupy the port until `finish` (unless aborted earlier).
    LoadStarted {
        /// Target container.
        container: ContainerId,
        /// Atom being loaded.
        atom: AtomTypeId,
        /// Cycle the transfer started.
        at: u64,
        /// Cycle the transfer is due to complete.
        finish: u64,
    },
    /// The transfer into `container` completed; the atom is usable.
    LoadFinished {
        /// Container now holding the atom.
        container: ContainerId,
        /// The atom that became usable.
        atom: AtomTypeId,
        /// Completion cycle.
        at: u64,
    },
    /// The transfer was rejected (CRC abort or target tile death).
    LoadAborted {
        /// Container the load was streaming into.
        container: ContainerId,
        /// Atom whose load was rejected.
        atom: AtomTypeId,
        /// Abort cycle.
        at: u64,
    },
    /// An SEU corrupted the loaded atom; the container is faulty until
    /// scrubbed (reloaded).
    AtomCorrupted {
        /// Container holding the corrupted configuration.
        container: ContainerId,
        /// The corrupted atom.
        atom: AtomTypeId,
        /// Cycle of the upset.
        at: u64,
    },
    /// The container was permanently taken out of service.
    ContainerQuarantined {
        /// The quarantined container.
        container: ContainerId,
        /// Quarantine cycle.
        at: u64,
    },
}

/// Aggregate fabric statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricStats {
    /// Atom loads requested via [`Fabric::enqueue_load`].
    pub loads_enqueued: u64,
    /// Atom loads completed.
    pub loads_completed: u64,
    /// Loaded atoms overwritten to make room for new ones.
    pub evictions: u64,
    /// Cycles the reconfiguration port spent streaming bitstreams.
    pub port_busy_cycles: u64,
    /// Pending loads dropped by [`Fabric::clear_pending`] (or because every
    /// container was quarantined).
    pub loads_cancelled: u64,
    /// Loads rejected at the end of the transfer (CRC abort, or the target
    /// tile failing mid-load).
    pub loads_aborted: u64,
    /// Loaded atoms corrupted by single-event upsets.
    pub seu_corruptions: u64,
    /// Containers lost to scheduled permanent tile failures.
    pub permanent_failures: u64,
    /// Containers taken out of service, by the fault schedule or via
    /// [`Fabric::quarantine`].
    pub containers_quarantined: u64,
    /// Port cycles wasted on loads that never became usable.
    pub fault_cycles_lost: u64,
    /// Evictions where the victim atom was loaded on behalf of a
    /// *different* application than the one loading (multi-tenant fabrics
    /// only; structurally zero with a single owner or a partitioned split).
    pub evictions_contested: u64,
}

/// A load streaming through the port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InFlight {
    atom: AtomTypeId,
    container: ContainerId,
    finish: u64,
    cycles: u64,
    /// Pre-drawn CRC verdict, revealed when the transfer completes.
    abort: bool,
    /// Application on whose behalf the load was enqueued (0 for
    /// single-owner fabrics).
    app: u16,
}

/// Priority of a scheduled tile failure (strikes before everything else at
/// the same cycle).
const PRIO_FAIL: u8 = 0;
/// Priority of a scheduled SEU corruption (after failures, before port
/// completions/starts at the same cycle).
const PRIO_CORRUPT: u8 = 1;

/// Runtime state of the fault model: the RNG stream plus every pending
/// fault event.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultState {
    model: FaultModel,
    rng: XorShift64,
    /// Every pending fault event as one ascending-sorted list of
    /// `(cycle, priority, container)` keys, at most two per container: its
    /// permanent failure (drawn once at construction) and the corruption of
    /// its loaded atom (drawn at load completion, cleared on overwrite or
    /// quarantine). `next_internal_event` reads `schedule[0]` in O(1); the
    /// sort key orders events by earliest cycle, Fail before Corrupt on
    /// ties, lowest container index last. A sorted `Vec` rather than a heap
    /// keeps the front readable through `&self`, and mutations are rare
    /// (one per fault-schedule change, not per burst).
    schedule: Vec<(u64, u8, u16)>,
}

impl FaultState {
    /// Schedules an SEU corruption of container `i` at cycle `t`.
    fn set_corrupt_at(&mut self, i: usize, t: u64) {
        let key = (t, PRIO_CORRUPT, container_key(i));
        let pos = self.schedule.partition_point(|&e| e < key);
        self.schedule.insert(pos, key);
    }

    /// Cancels container `i`'s pending event of priority `prio`, if any.
    fn clear(&mut self, prio: u8, i: usize) {
        let container = container_key(i);
        if let Some(pos) = self
            .schedule
            .iter()
            .position(|&(_, p, c)| (p, c) == (prio, container))
        {
            self.schedule.remove(pos);
        }
    }
}

fn container_key(i: usize) -> u16 {
    u16::try_from(i).expect("container index fits u16")
}

/// Internal event kinds, ordered by processing priority at equal cycles:
/// tile failures strike first, then upsets, then the port transfer
/// completes, then the next queued load may start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Fail(usize),
    Corrupt(usize),
    Finish,
    Start,
}

/// Widest universe whose present atom types fit one mask word.
const MASK_TYPES: usize = 64;

/// Whether a container is a first-tier load target: Empty, or Faulty (a
/// scrub-and-reload target).
fn vacant(c: &AtomContainer) -> bool {
    matches!(
        c.state(),
        ContainerState::Empty | ContainerState::Faulty { .. }
    )
}

/// The reconfigurable fabric: Atom Containers plus the reconfiguration port.
///
/// Loads are serialised through the single port in FIFO order. Eviction
/// (overwriting a loaded atom) prefers atoms with instances in excess of the
/// *protected* set (normally `sup(M)` of the currently selected Molecules),
/// breaking ties by least-recent use.
///
/// Besides the containers, the fabric keeps what a load changes in step
/// with it, so a load start reads it instead of recounting: the transfer
/// cycles of each atom type (fixed once the port is), the number of Empty
/// and Faulty containers, and the mask of atom types present in the
/// available set. Debug builds recount the last two, and the loaded atoms
/// per type against [`available`](Self::available), before every victim
/// choice.
///
/// With a [`FaultModel`] attached (see [`Fabric::with_fault_model`]) the
/// fabric additionally injects CRC aborts, SEU corruption and permanent
/// tile failures, all drawn from one seeded stream so runs stay
/// bit-identical regardless of sweep-thread count.
#[derive(Debug, Clone)]
pub struct Fabric {
    config: FabricConfig,
    /// Port cycles to load one atom of each type, by type.
    load_cycles: Vec<u64>,
    containers: Vec<AtomContainer>,
    /// Containers that are Empty or Faulty; every state change goes
    /// through [`Fabric::transition`], which keeps it.
    vacant: u16,
    /// FIFO of `(atom, not_before, app)`: a load never starts before its
    /// `not_before` cycle (retry backoff uses this), and carries the
    /// application tag it was enqueued for (0 for single-owner fabrics).
    queue: VecDeque<(AtomTypeId, u64, u16)>,
    in_flight: Option<InFlight>,
    available: Molecule,
    /// Bit `i` set iff `available` holds type `i`; every bit when the
    /// universe has more than [`MASK_TYPES`] types. Kept by
    /// [`Fabric::set_available`].
    present: u64,
    generation: u64,
    protected: Molecule,
    /// Last cycle each atom *type* was executed. A container's effective
    /// LRU stamp is the later of its own load-completion mark and its
    /// loaded type's entry here, which makes [`Fabric::mark_used`] O(arity)
    /// instead of O(containers) per burst segment.
    type_used: Vec<u64>,
    now: u64,
    stats: FabricStats,
    fault: Option<FaultState>,
    /// Container-transition journal; empty unless enabled.
    journal_enabled: bool,
    journal: Vec<FabricJournalEntry>,
    /// Application that last loaded (or is loading) into each container —
    /// the multi-tenant ownership tag. `None` until the first load starts.
    owners: Vec<Option<u16>>,
    /// Per-application `(loads_completed, port_busy_cycles)`, indexed by
    /// app tag and grown on demand.
    app_stats: Vec<(u64, u64)>,
}

impl Fabric {
    /// Creates a fault-free fabric with all containers empty at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if the port configuration is invalid (zero bandwidth). Callers
    /// accepting untrusted configs should check
    /// [`ReconfigPortConfig::validate`] first.
    #[must_use]
    pub fn new(config: FabricConfig, universe: &AtomUniverse) -> Self {
        let load_cycles = config
            .port
            .cycles_per_type(universe)
            .expect("fabric port configuration must be valid");
        let arity = universe.arity();
        Fabric {
            config,
            load_cycles,
            containers: (0..config.containers)
                .map(|i| AtomContainer::new(ContainerId(i)))
                .collect(),
            vacant: config.containers,
            queue: VecDeque::new(),
            in_flight: None,
            available: Molecule::zero(arity),
            present: if arity > MASK_TYPES { u64::MAX } else { 0 },
            generation: 0,
            protected: Molecule::zero(arity),
            type_used: vec![0; arity],
            now: 0,
            stats: FabricStats::default(),
            fault: None,
            journal_enabled: false,
            journal: Vec::new(),
            owners: vec![None; usize::from(config.containers)],
            app_stats: Vec::new(),
        }
    }

    /// Creates a fabric with a seeded [`FaultModel`] attached. The
    /// permanent-failure schedule is drawn immediately; CRC and SEU draws
    /// happen as loads start and complete.
    ///
    /// A null model (every rate zero) behaves bit-identically to
    /// [`Fabric::new`].
    ///
    /// # Panics
    ///
    /// Panics if the port configuration is invalid (zero bandwidth), as in
    /// [`Fabric::new`].
    #[must_use]
    pub fn with_fault_model(
        config: FabricConfig,
        universe: &AtomUniverse,
        model: FaultModel,
    ) -> Self {
        let mut fabric = Fabric::new(config, universe);
        let mut rng = XorShift64::new(model.seed);
        let horizon = model.failure_horizon().max(1);
        let mut schedule = Vec::new();
        for i in 0..config.containers {
            if rng.chance_ppm(model.permanent_failure_ppm) {
                schedule.push((1 + rng.next_u64() % horizon, PRIO_FAIL, i));
            }
        }
        schedule.sort_unstable();
        fabric.fault = Some(FaultState {
            model,
            rng,
            schedule,
        });
        fabric
    }

    /// The attached fault model, if any.
    #[must_use]
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.fault.as_ref().map(|f| &f.model)
    }

    /// Number of Atom Containers (including quarantined ones).
    #[must_use]
    pub fn container_count(&self) -> u16 {
        self.config.containers
    }

    /// Number of containers still in service (not quarantined). This is
    /// what Molecule selection must plan against on a degraded fabric.
    #[must_use]
    pub fn usable_container_count(&self) -> u16 {
        let usable = self
            .containers
            .iter()
            .filter(|c| !c.is_quarantined())
            .count();
        u16::try_from(usable).expect("container count fits in u16")
    }

    /// The fabric configuration.
    #[must_use]
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Current simulated cycle (last `advance_events_into` target).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Atoms currently usable, as a Molecule over the atom universe.
    #[must_use]
    pub fn available(&self) -> &Molecule {
        &self.available
    }

    /// The atom types present in [`available`](Self::available) as a
    /// mask: bit `i` is set iff type `i` has an available instance, and
    /// every bit is set when the universe has more than 64 types. It is
    /// the `present` input of `SiDefinition::fastest_available_index`,
    /// kept as loads complete and atoms leave instead of rebuilt per
    /// lookup.
    #[must_use]
    pub fn present_types(&self) -> u64 {
        self.present
    }

    /// Number of Empty and Faulty containers, the first two tiers of the
    /// victim choice, kept at every container transition. A test hook:
    /// `fault_injection.rs` checks it against a recount of
    /// [`containers`](Self::containers).
    #[must_use]
    pub fn vacant_count(&self) -> u16 {
        self.vacant
    }

    /// Generation counter of the available-atom set: incremented every time
    /// [`available`](Self::available) changes (a load completing, an atom
    /// being evicted, or a fault removing one). Callers caching anything
    /// derived from the available set — e.g. the best Molecule variant per
    /// SI in `FabricArbiter::best_available_variant` — only need to look
    /// again when this value changes.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Snapshot of all containers.
    #[must_use]
    pub fn containers(&self) -> &[AtomContainer] {
        &self.containers
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Load currently streaming through the port, if any:
    /// `(atom, container, finish)`. A test hook: `fault_injection.rs`
    /// reads it.
    #[must_use]
    pub fn in_flight(&self) -> Option<(AtomTypeId, ContainerId, u64)> {
        self.in_flight.map(|fl| (fl.atom, fl.container, fl.finish))
    }

    /// Number of queued (not yet started) loads. A test hook:
    /// `fabric_behaviour.rs` reads it.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.queue.len()
    }

    /// Whether the port is idle and no loads are queued. A test hook:
    /// `fabric_behaviour.rs` and `fault_injection.rs` read it.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_none() && self.queue.is_empty()
    }

    /// Enables (or disables) the container-transition journal. While
    /// enabled, every load start/finish/abort, corruption and quarantine is
    /// appended to an internal buffer that observers drain via
    /// [`Fabric::drain_journal`]. Off by default so fault-free hot paths
    /// never allocate for it.
    pub fn set_journal_enabled(&mut self, enabled: bool) {
        self.journal_enabled = enabled;
        if !enabled {
            self.journal.clear();
        }
    }

    /// Whether the container-transition journal is being recorded.
    #[must_use]
    pub fn journal_enabled(&self) -> bool {
        self.journal_enabled
    }

    /// Moves all buffered journal entries (chronological order) into `out`.
    pub fn drain_journal(&mut self, out: &mut Vec<FabricJournalEntry>) {
        out.append(&mut self.journal);
    }

    #[inline]
    fn record(&mut self, entry: FabricJournalEntry) {
        if self.journal_enabled {
            self.journal.push(entry);
        }
    }

    /// Marks the given atom set as protected from eviction (normally
    /// `sup(M)` of the Molecules selected for the upcoming hot spot).
    ///
    /// # Panics
    ///
    /// Panics if the Molecule arity does not match the universe.
    pub fn set_protected(&mut self, protected: Molecule) {
        assert_eq!(
            protected.arity(),
            self.available.arity(),
            "protected set arity must match universe"
        );
        self.protected = protected;
    }

    /// Appends a load of `atom` on behalf of application `app` that must
    /// not start before cycle `not_before` (0 for no delay; retries back
    /// off through it). The tag flows into the container's ownership record
    /// when the load starts and into the per-app port accounting when it
    /// completes; a single-owner fabric uses app 0.
    ///
    /// # Panics
    ///
    /// Panics if the atom type is outside the universe.
    pub fn enqueue_load(&mut self, app: u16, atom: AtomTypeId, not_before: u64) {
        assert!(
            atom.index() < self.load_cycles.len(),
            "atom type {atom} outside universe"
        );
        self.stats.loads_enqueued += 1;
        self.queue.push_back((atom, not_before, app));
        self.try_start_next(self.now);
    }

    /// Appends a full schedule (sequence of atom loads) on behalf of
    /// application `app`.
    pub fn enqueue_schedule<I: IntoIterator<Item = AtomTypeId>>(&mut self, app: u16, atoms: I) {
        for atom in atoms {
            self.enqueue_load(app, atom, 0);
        }
    }

    /// Drops the queued loads tagged for application `app` (the in-flight
    /// bitstream, if any, completes), leaving other tenants' pending loads
    /// in place. Called on a hot-spot switch when a fresh schedule
    /// supersedes the old one.
    pub fn clear_pending(&mut self, app: u16) {
        let before = self.queue.len();
        self.queue.retain(|&(_, _, a)| a != app);
        self.stats.loads_cancelled += (before - self.queue.len()) as u64;
    }

    /// Application that last loaded (or is loading) into `container`, if
    /// any load ever started there — the multi-tenant ownership tag.
    #[must_use]
    pub fn owner_of(&self, container: ContainerId) -> Option<u16> {
        self.owners.get(container.index()).copied().flatten()
    }

    /// Per-application `(loads_completed, port_busy_cycles)` for `app`;
    /// zero for tags that never loaded.
    #[must_use]
    pub fn app_port_stats(&self, app: u16) -> (u64, u64) {
        self.app_stats
            .get(usize::from(app))
            .copied()
            .unwrap_or((0, 0))
    }

    fn app_stats_mut(&mut self, app: u16) -> &mut (u64, u64) {
        let idx = usize::from(app);
        if idx >= self.app_stats.len() {
            self.app_stats.resize(idx + 1, (0, 0));
        }
        &mut self.app_stats[idx]
    }

    /// Records that atoms of the executing Molecule were used at `now`;
    /// feeds the least-recently-used eviction tie-breaker.
    ///
    /// Only the per-type timestamps are touched (O(arity), independent of
    /// the container count); [`Fabric::effective_last_used`] folds them back
    /// into per-container stamps on the cold eviction path.
    pub fn mark_used(&mut self, atoms: &Molecule, now: u64) {
        for (i, &count) in atoms.counts().iter().enumerate() {
            if count > 0 {
                self.type_used[i] = now;
            }
        }
    }

    /// Mask-based variant of [`Fabric::mark_used`] for burst hot paths:
    /// bit `i` of `mask` marks atom type `i` as executed at `now` (see
    /// [`Molecule::nonzero_mask`]). Runs in O(types used by the Molecule)
    /// — typically one or two — instead of O(arity).
    pub fn mark_used_types(&mut self, mut mask: u64, now: u64) {
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            debug_assert!(i < self.type_used.len(), "mask bit outside universe");
            if let Some(slot) = self.type_used.get_mut(i) {
                *slot = now;
            }
            mask &= mask - 1;
        }
    }

    /// Effective least-recently-used stamp of a container: the later of the
    /// container's own mark (set when its load completed) and the last
    /// execution of its loaded atom's type. Matches per-container marking
    /// exactly because an execution at cycle `t` uses — and under the old
    /// scheme would have stamped — every container already loaded with that
    /// type at `t`, while containers finishing later keep the newer
    /// load-completion mark.
    #[must_use]
    pub fn effective_last_used(&self, container: &AtomContainer) -> u64 {
        match container.loaded_atom() {
            Some(atom) => container.last_used().max(self.type_used[atom.index()]),
            None => container.last_used(),
        }
    }

    /// Permanently removes a container from service (run-time-manager
    /// policy, e.g. after exhausting load retries on a flaky tile). Any
    /// load streaming into it is aborted, a loaded atom leaves the
    /// available set, and the container is never used again.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::UnknownContainer`] for an out-of-range id.
    pub fn quarantine(&mut self, id: ContainerId) -> Result<(), FabricError> {
        if id.index() >= self.containers.len() {
            return Err(FabricError::UnknownContainer(id));
        }
        if self.containers[id.index()].is_quarantined() {
            return Ok(());
        }
        self.quarantine_container(id.index(), self.now);
        self.stats.containers_quarantined += 1;
        self.try_start_next(self.now);
        Ok(())
    }

    /// Advances simulated time to `now`, processing port completions,
    /// CRC aborts, SEU corruptions and scheduled tile failures in
    /// chronological order. Clears `events` and writes every event that
    /// occurred into it, so event-driven hot loops (the arbiter's fabric
    /// sync) can step many event windows without allocating per window.
    ///
    /// # Panics
    ///
    /// Panics if `now` moves backwards.
    pub fn advance_events_into(&mut self, now: u64, events: &mut Vec<FabricEvent>) {
        assert!(now >= self.now, "time must be monotone");
        events.clear();
        while let Some((t, kind)) = self.next_internal_event() {
            if t > now {
                break;
            }
            self.process_event(t, kind, events);
        }
        self.now = now;
    }

    /// Earliest cycle at which the fabric state next changes on its own
    /// (a transfer completing, a backoff-delayed load starting, an upset
    /// or a scheduled tile failure), if any.
    #[must_use]
    pub fn next_event_at(&self) -> Option<u64> {
        self.next_internal_event().map(|(t, _)| t)
    }

    /// Advances the clock to `now` without scanning for events — the fast
    /// path of burst execution once the caller has checked (via
    /// [`Fabric::next_event_at`]) that nothing is due by `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` moves backwards; debug builds also verify that no
    /// due event is being skipped.
    pub fn advance_clock(&mut self, now: u64) {
        assert!(now >= self.now, "time must be monotone");
        debug_assert!(
            self.next_event_at().is_none_or(|e| e > now),
            "advance_clock would skip a due fabric event"
        );
        self.now = now;
    }

    /// Picks the next internal event: minimum cycle, ties broken by
    /// [`EventKind`] priority (failures before upsets before completions
    /// before starts), then by container index.
    ///
    /// Fault events come from the sorted `FaultState::schedule` in O(1);
    /// its `(cycle, priority, container)` sort key encodes exactly this
    /// ordering, and it holds failures only for non-quarantined containers
    /// and corruptions only for loaded ones, so no per-container
    /// eligibility check is needed.
    fn next_internal_event(&self) -> Option<(u64, EventKind)> {
        let mut best: Option<(u64, u8, EventKind)> = None;
        let consider = |t: u64, prio: u8, kind: EventKind, best: &mut Option<_>| {
            if best.is_none_or(|(bt, bp, _)| (t, prio) < (bt, bp)) {
                *best = Some((t, prio, kind));
            }
        };
        if let Some(f) = &self.fault {
            if let Some(&(t, prio, i)) = f.schedule.first() {
                let kind = match prio {
                    PRIO_FAIL => EventKind::Fail(usize::from(i)),
                    _ => EventKind::Corrupt(usize::from(i)),
                };
                best = Some((t, prio, kind));
            }
        }
        if let Some(fl) = &self.in_flight {
            consider(fl.finish, 2, EventKind::Finish, &mut best);
        } else if let Some(&(_, not_before, _)) = self.queue.front() {
            // Port idle with a queued load: it starts once its backoff
            // window opens (or immediately, at `now`).
            consider(not_before.max(self.now), 3, EventKind::Start, &mut best);
        }
        best.map(|(t, _, kind)| (t, kind))
    }

    fn process_event(&mut self, t: u64, kind: EventKind, events: &mut Vec<FabricEvent>) {
        match kind {
            EventKind::Fail(i) => {
                // Capture a load streaming into the dying tile before the
                // quarantine clears it, so the abort is observable.
                let killed = self.in_flight.filter(|fl| fl.container.index() == i);
                self.quarantine_container(i, t);
                self.stats.permanent_failures += 1;
                self.stats.containers_quarantined += 1;
                events.push(FabricEvent::ContainerFailed {
                    container: ContainerId(u16::try_from(i).expect("container index fits u16")),
                    at: t,
                });
                if let Some(fl) = killed {
                    events.push(FabricEvent::LoadAborted {
                        atom: fl.atom,
                        container: fl.container,
                        at: t,
                    });
                }
                self.try_start_next(t);
            }
            EventKind::Corrupt(i) => {
                if let Some(f) = &mut self.fault {
                    f.clear(PRIO_CORRUPT, i);
                }
                if let Some(atom) = self.transition(i, AtomContainer::corrupt) {
                    self.remove_available(atom);
                    self.stats.seu_corruptions += 1;
                    let container = self.containers[i].id();
                    self.record(FabricJournalEntry::AtomCorrupted {
                        container,
                        atom,
                        at: t,
                    });
                    events.push(FabricEvent::AtomCorrupted {
                        atom,
                        container,
                        at: t,
                    });
                }
            }
            EventKind::Finish => {
                let fl = self
                    .in_flight
                    .take()
                    .expect("finish event implies in-flight load");
                let i = fl.container.index();
                if fl.abort {
                    self.transition(i, AtomContainer::abort_load);
                    self.stats.loads_aborted += 1;
                    self.stats.fault_cycles_lost += fl.cycles;
                    self.record(FabricJournalEntry::LoadAborted {
                        container: fl.container,
                        atom: fl.atom,
                        at: t,
                    });
                    events.push(FabricEvent::LoadAborted {
                        atom: fl.atom,
                        container: fl.container,
                        at: t,
                    });
                } else {
                    self.transition(i, AtomContainer::finish_load);
                    self.containers[i].mark_used(t);
                    let idx = fl.atom.index();
                    let have = self.available.count(idx);
                    self.set_available(idx, have.saturating_add(1));
                    self.stats.loads_completed += 1;
                    self.app_stats_mut(fl.app).0 += 1;
                    if let Some(f) = &mut self.fault {
                        if f.model.seu_per_gcycle > 0 {
                            let lifetime = f.rng.seu_lifetime(f.model.seu_per_gcycle);
                            f.set_corrupt_at(i, t + lifetime);
                        }
                    }
                    self.record(FabricJournalEntry::LoadFinished {
                        container: fl.container,
                        atom: fl.atom,
                        at: t,
                    });
                    events.push(FabricEvent::Completed(LoadCompleted {
                        atom: fl.atom,
                        container: fl.container,
                        at: t,
                    }));
                }
                // The port frees at `t`; the next queued load starts there.
                self.try_start_next(t);
            }
            EventKind::Start => {
                self.try_start_next(t);
            }
        }
    }

    /// Quarantines container `i` in place: kills a load streaming into it
    /// (accounting the port cycles as lost), removes a loaded atom from the
    /// available set and clears the container's fault schedule.
    fn quarantine_container(&mut self, i: usize, at: u64) {
        if let Some(atom) = self.containers[i].loaded_atom() {
            self.remove_available(atom);
        }
        self.transition(i, AtomContainer::quarantine);
        if let Some(f) = &mut self.fault {
            f.clear(PRIO_CORRUPT, i);
            f.clear(PRIO_FAIL, i);
        }
        if let Some(fl) = self.in_flight.filter(|fl| fl.container.index() == i) {
            self.in_flight = None;
            self.stats.loads_aborted += 1;
            self.stats.fault_cycles_lost += fl.cycles;
            self.record(FabricJournalEntry::LoadAborted {
                container: fl.container,
                atom: fl.atom,
                at,
            });
        }
        self.record(FabricJournalEntry::ContainerQuarantined {
            container: ContainerId(u16::try_from(i).expect("container index fits u16")),
            at,
        });
    }

    fn remove_available(&mut self, atom: AtomTypeId) {
        let idx = atom.index();
        let have = self.available.count(idx);
        self.set_available(idx, have - 1);
    }

    /// Sets the available count of type `idx`, keeping the present-types
    /// mask, and moves the generation.
    fn set_available(&mut self, idx: usize, count: u16) {
        self.available.set_count(idx, count);
        if self.available.arity() <= MASK_TYPES {
            let bit = 1u64 << idx;
            if count > 0 {
                self.present |= bit;
            } else {
                self.present &= !bit;
            }
        }
        self.generation += 1;
    }

    /// Applies one state change to container `i`, keeping the count of
    /// Empty and Faulty containers.
    fn transition<R>(&mut self, i: usize, change: impl FnOnce(&mut AtomContainer) -> R) -> R {
        let c = &mut self.containers[i];
        let was = vacant(c);
        let out = change(c);
        let is = vacant(c);
        self.vacant = self.vacant + u16::from(is) - u16::from(was);
        out
    }

    fn try_start_next(&mut self, at: u64) {
        if self.in_flight.is_some() {
            return;
        }
        loop {
            let Some(&(atom, not_before, app)) = self.queue.front() else {
                return;
            };
            if not_before > at {
                // Backoff window still closed; the event loop will start it
                // once `not_before` is reached.
                return;
            }
            let Some(victim) = self.pick_container() else {
                // Every container is quarantined: the load can never be
                // placed. Drop it so the queue cannot wedge the port.
                self.queue.pop_front();
                self.stats.loads_cancelled += 1;
                continue;
            };
            self.queue.pop_front();
            let c = &mut self.containers[victim.index()];
            if let Some(old) = c.loaded_atom() {
                // Partial reconfiguration overwrites the old atom
                // immediately: one instance of the evicted type leaves the
                // available set.
                self.stats.evictions += 1;
                if self.owners[victim.index()].is_some_and(|o| o != app) {
                    self.stats.evictions_contested += 1;
                }
                self.remove_available(old);
            }
            let cycles = self.load_cycles[atom.index()];
            let finish = at + cycles;
            self.stats.port_busy_cycles += cycles;
            self.app_stats_mut(app).1 += cycles;
            let abort = match &mut self.fault {
                // One CRC draw per started load, revealed at the end of the
                // transfer (rate zero draws too, keeping the stream stable).
                Some(f) => f.rng.chance_ppm(f.model.crc_abort_ppm),
                None => false,
            };
            if let Some(f) = &mut self.fault {
                // Whatever corruption was scheduled for the overwritten
                // atom no longer applies.
                f.clear(PRIO_CORRUPT, victim.index());
            }
            self.transition(victim.index(), |c| c.begin_load(atom, finish));
            self.owners[victim.index()] = Some(app);
            self.record(FabricJournalEntry::LoadStarted {
                container: victim,
                atom,
                at,
                finish,
            });
            self.in_flight = Some(InFlight {
                atom,
                container: victim,
                finish,
                cycles,
                abort,
                app,
            });
            return;
        }
    }

    /// Chooses the container for the next load: an empty one if available,
    /// else a faulty one (scrub-and-reload target), otherwise a loaded
    /// container holding an atom in excess of the protected set (least
    /// recently used first), otherwise the globally least recently used
    /// loaded container. Quarantined containers are never candidates.
    fn pick_container(&self) -> Option<ContainerId> {
        self.debug_validate_kept_state();
        // The first two tiers, searched only when the kept count says a
        // container is in one: the first empty container wins outright,
        // else the first faulty one is the scrub target.
        if self.vacant > 0 {
            let first = |tier: fn(ContainerState) -> bool| {
                self.containers
                    .iter()
                    .find(|c| tier(c.state()))
                    .map(AtomContainer::id)
            };
            return first(|s| s == ContainerState::Empty)
                .or_else(|| first(|s| matches!(s, ContainerState::Faulty { .. })));
        }
        // Loaded instances per type equal `available` (only Loaded
        // containers count in either), so the "in excess of the protected
        // set" test is one bit per type, formed once per choice.
        let arity = self.available.arity();
        let mut stack = [0u64; 1];
        let mut heap = Vec::new();
        let excess: &mut [u64] = if arity <= MASK_TYPES {
            &mut stack
        } else {
            heap.resize(arity.div_ceil(MASK_TYPES), 0);
            &mut heap
        };
        let kept = self.protected.counts();
        for (i, (&have, &keep)) in self.available.counts().iter().zip(kept).enumerate() {
            if have > keep {
                excess[i / MASK_TYPES] |= 1 << (i % MASK_TYPES);
            }
        }
        // One pass fuses the last two tiers — least-recently-used among
        // containers holding an atom in excess of the protected set, else
        // least-recently-used loaded overall — tracking both minima at
        // once. Strict `<` keeps `min_by_key`'s first-minimum tie-break.
        let mut in_excess: Option<(u64, ContainerId)> = None;
        let mut any: Option<(u64, ContainerId)> = None;
        for c in &self.containers {
            let Some(a) = c.loaded_atom() else { continue };
            let eff = self.effective_last_used(c);
            let i = a.index();
            if excess[i / MASK_TYPES] >> (i % MASK_TYPES) & 1 == 1
                && in_excess.is_none_or(|(best, _)| eff < best)
            {
                in_excess = Some((eff, c.id()));
            }
            if any.is_none_or(|(best, _)| eff < best) {
                any = Some((eff, c.id()));
            }
        }
        in_excess.or(any).map(|(_, id)| id)
    }

    /// Recounts what the fabric keeps beside its containers (debug builds
    /// only): the Empty/Faulty count, the loaded atoms per type against
    /// `available`, and the present-types mask.
    fn debug_validate_kept_state(&self) {
        if cfg!(debug_assertions) {
            let vacant = self.containers.iter().filter(|c| vacant(c)).count();
            debug_assert_eq!(usize::from(self.vacant), vacant, "stale vacant count");
            let mut loaded = vec![0u16; self.available.arity()];
            for a in self
                .containers
                .iter()
                .filter_map(AtomContainer::loaded_atom)
            {
                loaded[a.index()] += 1;
            }
            debug_assert_eq!(self.available.counts(), &loaded[..], "stale available");
            let present = if loaded.len() > MASK_TYPES {
                u64::MAX
            } else {
                self.available.nonzero_mask()
            };
            debug_assert_eq!(self.present, present, "stale present-types mask");
        }
    }
}
