//! Multi-tenant fabric arbitration: K applications, one substrate.
//!
//! The paper's run-time system assumes a single application owns the whole
//! reconfigurable fabric. The [`FabricArbiter`] generalises it to K
//! concurrent applications sharing that one fabric, each with its own
//! [`AppContext`] (execution monitor, Molecule selection and best-variant
//! cache), all planned by one [`SchedulerKind`]. Every tenant plans against
//! the full container pool: containers carry per-application owner tags,
//! atoms loaded by one tenant accelerate another whenever their Molecule
//! atom types overlap (cross-app atom reuse), evictions of a co-tenant's
//! atoms are counted as *contested*, and the HEF scheduler's division-free
//! benefit comparison additionally weighs the other tenants' forecast
//! demand against eviction cost (see
//! [`ScheduleRequest::with_foreign_pressure`]).
//!
//! A static split of the substrate arbitrates nothing, so it is not modelled
//! here: a partitioned tenant is a solo run on its share of the containers
//! (the simulator's `simulate_multi` replays it that way).
//!
//! The arbiter is also the single-owner run-time manager of paper Section
//! 3.1: a 1-tenant arbiter (the builder's default) driven as application
//! `0`. The single-owner path and the multi-tenant path are therefore one
//! code path by construction.

use std::sync::Arc;

use rispp_fabric::{ContainerState, Fabric, FabricConfig, FabricEvent, FaultModel};
use rispp_model::{Molecule, SiId, SiLibrary};
use rispp_monitor::{ExecutionMonitor, ForecastPolicy, HotSpotId};

use crate::context::UpgradeBuffers;
use crate::explain::{DecisionExplain, ScheduleExplain, SelectionExplain};
use crate::plan_cache::{
    fnv1a_words, library_fingerprint, PlanCacheHandle, PlanCacheStats, PlannedDecision,
};
use crate::recovery::{RecoveryPolicy, RecoveryStats};
use crate::scheduler::SchedulerKind;
use crate::selection::{GreedySelector, SelectionRequest};
use crate::types::{BurstSegment, ScheduleRequest, SelectedMolecule, SiExecution};
use crate::CoreError;

/// Per-SI memo of the fastest available Molecule variant, keyed by the
/// fabric's generation counter. `generation` starts at `u64::MAX` (the
/// fabric starts at 0) so the first lookup always computes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BestVariantCache {
    generation: u64,
    best: Option<(usize, u32)>,
}

impl Default for BestVariantCache {
    fn default() -> Self {
        BestVariantCache {
            generation: u64::MAX,
            best: None,
        }
    }
}

/// The per-application half of the run-time system: monitor, selection and
/// recovery state of one application, kept apart from the substrate so the
/// arbiter can hold K of them over one fabric.
#[derive(Debug)]
struct AppContext {
    monitor: ExecutionMonitor,
    current_hot_spot: Option<HotSpotId>,
    selected: Vec<SelectedMolecule>,
    best_cache: Vec<BestVariantCache>,
    /// Demands of the active hot spot, kept for re-planning after a
    /// container quarantine shrinks the fabric.
    last_demands: Vec<(SiId, u64)>,
    /// `sup(M)` of this context's last plan — its claim on the fabric's
    /// protected set (the fabric protects the union of all claims).
    supremum: Molecule,
    load_retries: u64,
    degraded_to_software: u64,
    /// Foreign atoms this tenant's plans found already loaded by
    /// co-tenants (cross-app reuse).
    atoms_shared: u64,
    explain_enabled: bool,
    decisions: Vec<DecisionExplain>,
}

/// Scratch storage shared by *all* contexts — one arena regardless of K,
/// so K tenants do not multiply the per-plan allocations. Safe because
/// plans and burst executions are serialised through `&mut self`.
#[derive(Debug, Default)]
struct SharedScratch {
    demand_buf: Vec<(SiId, u64)>,
    expected_buf: Vec<u64>,
    sched_buffers: UpgradeBuffers,
    pressure_buf: Vec<u64>,
    /// Canonical plan-key words of the current lookup (reused so a
    /// steady-state cache hit allocates nothing).
    key_buf: Vec<u64>,
    /// Per-SI, per-variant [`Molecule::nonzero_mask`] of the variant's
    /// atoms (burst LRU marking from one precomputed word). Derived from
    /// the shared library, hence identical for every context. Empty when
    /// the universe is wider than 64 types.
    used_masks: Vec<Vec<u64>>,
    /// Per-SI resolution memo of one batched burst call (reused across
    /// calls so the steady state allocates nothing) — see
    /// [`FabricArbiter::execute_bursts_batched`].
    batch_memo: Vec<BatchMemo>,
    /// Event window reused by [`FabricArbiter::sync_fabric`], so the
    /// event-processing hot path allocates nothing.
    event_buf: Vec<FabricEvent>,
}

/// One SI's resolved execution state inside a single batched burst call.
/// Valid for the whole call because a batch processes no fabric events,
/// so the fabric generation — and with it the best available variant —
/// cannot change between its bursts.
#[derive(Debug, Clone, Copy, Default)]
struct BatchMemo {
    /// Whether this SI has been resolved in the current call.
    resolved: bool,
    /// Effective per-execution latency (hardware or software).
    latency: u32,
    /// Hardware variant index, `None` when trapping to software.
    variant: Option<usize>,
    /// Precomputed nonzero mask of the variant's atoms, when available.
    mask: Option<u64>,
    /// Executions accumulated for the monitor, flushed once per call.
    executed: u64,
    /// Start cycle of this SI's last burst in the call — its deferred
    /// LRU stamp (later bursts overwrite earlier ones, as the per-burst
    /// marking sequence would).
    last_used: Option<u64>,
}

/// The RISPP Run-Time Manager (paper Section 3.1) as an arbiter over the
/// reconfigurable substrate: it controls SI execution (task I), observes
/// and adapts to varying requirements via the monitor (task II), and
/// determines Atom re-loading decisions through selection and scheduling
/// (task III). It owns the one fabric and its reconfiguration port, and
/// multiplexes K per-application contexts (monitor, selection, recovery
/// state) over it. Per-application entry points take the application
/// index (`app < tenants()`) first; a single-owner run is a 1-tenant
/// arbiter driven as application `0`.
#[derive(Debug)]
pub struct FabricArbiter<'a> {
    library: &'a SiLibrary,
    fabric: Fabric,
    contexts: Vec<AppContext>,
    scratch: SharedScratch,
    recovery: RecoveryPolicy,
    /// Consecutive aborted loads per container; reset on a completion.
    abort_streaks: Vec<u32>,
    scheduler_kind: SchedulerKind,
    /// Memoised planning decisions (intra-run private or shared across
    /// jobs/requests); `None` plans from scratch on every entry.
    plan_cache: Option<PlanCacheHandle>,
    /// Handle namespace XOR the library fingerprint — the first key word.
    plan_namespace: u64,
    /// Plan-invalidation epoch: bumped on every quarantine and permanent
    /// tile failure, embedded in every plan key (see [`crate::PlanCache`]
    /// module docs).
    epoch: u64,
    /// Deterministic per-arbiter cache counters (the cache's own totals
    /// are racy under sharing).
    plan_stats: PlanCacheStats,
}

impl<'a> FabricArbiter<'a> {
    /// Starts building an arbiter over `library` (defaults: 1 tenant,
    /// 10 containers, HEF).
    #[must_use]
    pub fn builder(library: &'a SiLibrary) -> FabricArbiterBuilder<'a> {
        FabricArbiterBuilder {
            library,
            containers: 10,
            tenants: 1,
            scheduler: SchedulerKind::Hef,
            forecast: ForecastPolicy::default(),
            port_bandwidth: None,
            fault: None,
            recovery: RecoveryPolicy::default(),
            explain: false,
            plan_cache: None,
        }
    }

    /// The SI library the arbiter operates on.
    #[must_use]
    pub fn library(&self) -> &'a SiLibrary {
        self.library
    }

    /// Number of application contexts.
    #[must_use]
    pub fn tenants(&self) -> u16 {
        u16::try_from(self.contexts.len()).expect("tenant count fits u16")
    }

    /// The scheduling strategy every context runs.
    #[must_use]
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler_kind
    }

    /// The fabric every application runs on.
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The execution monitor of application `app`.
    #[must_use]
    pub fn monitor(&self, app: u16) -> &ExecutionMonitor {
        &self.contexts[usize::from(app)].monitor
    }

    /// The Molecules currently selected for `app`'s active hot spot.
    #[must_use]
    pub fn selected(&self, app: u16) -> &[SelectedMolecule] {
        &self.contexts[usize::from(app)].selected
    }

    /// The active hot spot of application `app`, if any.
    #[must_use]
    pub fn current_hot_spot(&self, app: u16) -> Option<HotSpotId> {
        self.contexts[usize::from(app)].current_hot_spot
    }

    /// Enters a hot spot of application `app` at cycle `now`: forecasts
    /// the SI execution profile (seeding with `hints` on the first
    /// encounter), selects Molecules, runs the scheduler and (re)programs
    /// `app`'s share of the reconfiguration queue.
    ///
    /// # Errors
    ///
    /// Propagates schedule-request validation failures; these indicate a
    /// library/selection inconsistency and cannot occur through the public
    /// builder path.
    pub fn enter_hot_spot(
        &mut self,
        app: u16,
        hot_spot: HotSpotId,
        hints: &[(SiId, u64)],
        now: u64,
    ) -> Result<(), CoreError> {
        let a = usize::from(app);
        let first_visit = self.contexts[a].monitor.iterations(hot_spot) == 0;
        // Reuse the shared demand buffer across entries; `take` detaches it
        // from `self` so the monitor can be read while filling it.
        let mut demands = std::mem::take(&mut self.scratch.demand_buf);
        demands.clear();
        {
            let ctx = &self.contexts[a];
            demands.extend(hints.iter().map(|&(si, hint)| {
                let expected = if first_visit {
                    hint
                } else {
                    ctx.monitor.expected(hot_spot, si)
                };
                (si, expected)
            }));
        }
        let result = self.enter_hot_spot_with_profile(app, hot_spot, &demands, now);
        self.scratch.demand_buf = demands;
        result
    }

    /// Enters a hot spot of `app` with an externally supplied execution
    /// profile, bypassing the online forecast (oracle studies, testing).
    ///
    /// # Errors
    ///
    /// See [`FabricArbiter::enter_hot_spot`].
    pub fn enter_hot_spot_with_profile(
        &mut self,
        app: u16,
        hot_spot: HotSpotId,
        demands: &[(SiId, u64)],
        now: u64,
    ) -> Result<(), CoreError> {
        let a = usize::from(app);
        self.sync_fabric(now);
        let ctx = &mut self.contexts[a];
        ctx.monitor.begin_hot_spot(hot_spot);
        ctx.current_hot_spot = Some(hot_spot);
        ctx.last_demands.clear();
        ctx.last_demands.extend_from_slice(demands);
        let stored = std::mem::take(&mut self.contexts[a].last_demands);
        let result = self.plan_app(a, &stored);
        self.contexts[a].last_demands = stored;
        result
    }

    /// Plans `demands` for `app` against the *usable* (non-quarantined)
    /// containers of the fabric and (re)programs `app`'s share of the
    /// reconfiguration queue. Shared by hot-spot entry and post-quarantine
    /// re-planning. A verified plan-cache hit takes the memoised decision
    /// and a miss [decides](Self::decide) afresh; either way
    /// [`apply_decision`](Self::apply_decision) performs the side effects.
    fn plan_app(&mut self, app: usize, demands: &[(SiId, u64)]) -> Result<(), CoreError> {
        let mut pressure = std::mem::take(&mut self.scratch.pressure_buf);
        self.contention_pressure(app, &mut pressure);

        // Content-addressed plan lookup: the decision is a pure function of
        // the key words, so a verified hit skips selection and scheduling
        // (see `crate::PlanCache`).
        let mut key = std::mem::take(&mut self.scratch.key_buf);
        key.clear();
        let mut plan_hash = 0u64;
        let mut cached = None;
        if let Some(handle) = &self.plan_cache {
            self.build_plan_key(app, demands, &pressure, &mut key);
            plan_hash = fnv1a_words(&key);
            cached = handle.cache().lookup(&key, plan_hash);
            if cached.is_some() {
                self.plan_stats.hits += 1;
            } else {
                self.plan_stats.misses += 1;
            }
        }
        let decision = match cached {
            Some(decision) => {
                self.scratch.pressure_buf = pressure;
                decision
            }
            None => {
                let decision = Arc::new(self.decide(app, demands, pressure, &key)?);
                if let Some(handle) = &self.plan_cache {
                    let memo = Arc::clone(&decision);
                    self.plan_stats.evictions += handle.cache().insert(plan_hash, memo);
                    self.plan_stats.insertions += 1;
                }
                decision
            }
        };
        self.scratch.key_buf = key;
        self.apply_decision(app, demands, &decision);
        Ok(())
    }

    /// Fills `pressure` with the contention pressure on `app`'s plan: how
    /// many *other* demanding tenants claim each atom type. Only a
    /// multi-tenant arbiter leaves it non-empty, so every single-owner run
    /// keeps the schedulers' arithmetic untouched.
    fn contention_pressure(&self, app: usize, pressure: &mut Vec<u64>) {
        pressure.clear();
        if self.contexts.len() == 1 {
            return;
        }
        pressure.resize(self.library.arity(), 0);
        let mut any = false;
        for (other, ctx) in self.contexts.iter().enumerate() {
            if other == app
                || ctx.current_hot_spot.is_none()
                || ctx.last_demands.iter().all(|&(_, e)| e == 0)
            {
                continue;
            }
            for (i, &count) in ctx.supremum.counts().iter().enumerate() {
                if count > 0 {
                    pressure[i] += 1;
                    any = true;
                }
            }
        }
        if !any {
            pressure.clear();
        }
    }

    /// Decides a fresh plan for `app`: Molecule selection within the
    /// usable containers, then the Atom schedule, plus both explain records
    /// when capture is on. Reads only plan-key material (`key`, empty
    /// without a cache), so the decision may be memoised.
    fn decide(
        &mut self,
        app: usize,
        demands: &[(SiId, u64)],
        pressure: Vec<u64>,
        key: &[u64],
    ) -> Result<PlannedDecision, CoreError> {
        let fabric = &self.fabric;
        let explain = self.contexts[app].explain_enabled;
        let mut selection_explain = explain.then(SelectionExplain::default);
        let selected = GreedySelector.select_explained(
            &SelectionRequest::new(self.library, demands, fabric.usable_container_count()),
            selection_explain.as_mut(),
        );
        let mut expected = std::mem::take(&mut self.scratch.expected_buf);
        expected.clear();
        expected.resize(self.library.len(), 0);
        for &(si, e) in demands {
            expected[si.index()] = e;
        }
        let request = ScheduleRequest::new(
            self.library,
            selected.clone(),
            fabric.available().clone(),
            expected,
        )?
        .with_foreign_pressure(pressure);
        let mut schedule_explain =
            explain.then(|| ScheduleExplain::new(self.scheduler_kind.abbreviation()));
        let schedule = self.scheduler_kind.schedule_with(
            &request,
            &mut self.scratch.sched_buffers,
            schedule_explain.as_mut(),
        );
        debug_assert!(schedule.validate(&request).is_ok());
        let decision = PlannedDecision {
            key: key.into(),
            selected,
            atoms: schedule.atoms().collect(),
            supremum: request.supremum(),
            explain: selection_explain.zip(schedule_explain).map(Box::new),
        };
        // Hand the allocations back for the next decision.
        self.scratch.sched_buffers.reclaim(schedule);
        (self.scratch.expected_buf, self.scratch.pressure_buf) = request.into_scratch();
        Ok(decision)
    }

    /// Applies a planning decision for `app`, fresh or memoised — the one
    /// place its side effects happen: installs the selection, counts a
    /// degradation to software, captures the explain records, counts
    /// cross-app atom reuse, claims the supremum, re-protects the union of
    /// every co-tenant's claim and enqueues the Atom loading sequence.
    fn apply_decision(&mut self, app: usize, demands: &[(SiId, u64)], decision: &PlannedDecision) {
        let fabric = &self.fabric;
        let usable = fabric.usable_container_count();
        // Quarantines shrank the fabric below what any Molecule needs: the
        // hot spot continues purely on the cISA software path.
        let degraded = !demands.is_empty()
            && decision.selected.is_empty()
            && usable < fabric.container_count();
        // Cross-app atom reuse: atoms this plan wants that a co-tenant
        // already has loaded arrive for free.
        let mut reused = 0u64;
        if self.contexts.len() > 1 {
            for c in fabric.containers() {
                if let (Some(atom), Some(owner)) = (c.loaded_atom(), fabric.owner_of(c.id())) {
                    if usize::from(owner) != app && decision.supremum.count(atom.index()) > 0 {
                        reused += 1;
                    }
                }
            }
        }
        let now = fabric.now();
        let ctx = &mut self.contexts[app];
        ctx.selected.clone_from(&decision.selected);
        ctx.degraded_to_software += u64::from(degraded);
        if ctx.explain_enabled {
            // The explain flag is a key word, so a cached decision carries
            // its records whenever capture is on.
            let (selection, schedule) = decision
                .explain
                .as_deref()
                .cloned()
                .expect("explained decisions carry their records");
            ctx.decisions.push(DecisionExplain {
                now,
                hot_spot: ctx.current_hot_spot,
                containers: usable,
                selection,
                schedule,
            });
        }
        ctx.atoms_shared += reused;
        ctx.supremum.clone_from(&decision.supremum);
        // The fabric protects the union of every co-tenant's claim, so one
        // tenant's plan can never unprotect what another still needs.
        let protect = Molecule::supremum(self.contexts.iter().map(|c| &c.supremum))
            .unwrap_or_else(|| Molecule::zero(self.library.arity()));
        let fabric = &mut self.fabric;
        fabric.clear_pending_app(app_tag(app));
        fabric.set_protected(protect);
        fabric.enqueue_schedule_app(app_tag(app), decision.atoms.iter().copied());
    }

    /// Writes the canonical plan-key words for planning `demands` of `app`
    /// into `key` (see the `crate::PlanCache` module docs
    /// for the layout). Every input the selection/scheduling pipeline and
    /// the replay side effects read is either a key word or recomputed
    /// live on a hit.
    fn build_plan_key(
        &self,
        app: usize,
        demands: &[(SiId, u64)],
        pressure: &[u64],
        key: &mut Vec<u64>,
    ) {
        let fabric = &self.fabric;
        key.push(self.plan_namespace);
        key.push(self.scheduler_kind as u64);
        key.push(self.epoch);
        key.push(self.contexts.len() as u64);
        key.push(app as u64);
        key.push(u64::from(self.contexts[app].explain_enabled));
        key.push(u64::from(fabric.usable_container_count()));
        key.push(u64::from(fabric.container_count()));
        key.push(demands.len() as u64);
        for &(si, expected) in demands {
            key.push(u64::from(si.0));
            key.push(expected);
        }
        let available = fabric.available();
        key.push(available.arity() as u64);
        for &count in available.counts() {
            key.push(u64::from(count));
        }
        key.push(pressure.len() as u64);
        key.extend_from_slice(pressure);
        // Fabric-state fingerprint: one word per container packing the
        // state tag, the loaded/loading/faulty atom (+1 so "no atom" is
        // distinct from atom 0) and the owner tag (+1 likewise).
        for container in fabric.containers() {
            let (tag, atom) = match container.state() {
                ContainerState::Empty => (0u64, 0u64),
                ContainerState::Loading { atom, .. } => (1, u64::from(atom.0) + 1),
                ContainerState::Loaded { atom } => (2, u64::from(atom.0) + 1),
                ContainerState::Faulty { atom } => (3, u64::from(atom.0) + 1),
                ContainerState::Quarantined => (4, 0),
            };
            let owner = fabric
                .owner_of(container.id())
                .map_or(0u64, |o| u64::from(o) + 1);
            key.push(tag | (atom << 3) | (owner << 24));
        }
    }

    /// Advances the fabric to `now` and applies the [`RecoveryPolicy`] to
    /// every fault event, attributing retries to the owning application:
    /// bounded-backoff retries for aborted loads, scrub reloads for
    /// SEU-corrupted Atoms, quarantine of containers that exhaust their
    /// retries, and a re-plan of every affected tenant whenever the set of
    /// usable containers shrinks. Steps the fabric event time by event
    /// time so a retry issued in response to an abort plays out its whole
    /// cascade inside one sync.
    fn sync_fabric(&mut self, now: u64) {
        let mut events = std::mem::take(&mut self.scratch.event_buf);
        loop {
            let Some(t) = self.fabric.next_event_at().filter(|&t| t <= now) else {
                // Nothing left inside the window: land the fabric clock on
                // `now` and stop (`advance_clock` debug-asserts exactly
                // what the filter above established — no event is due).
                self.fabric.advance_clock(now);
                break;
            };
            self.fabric.advance_events_into(t, &mut events);
            let mut needs_replan = false;
            for event in events.drain(..) {
                match event {
                    FabricEvent::Completed(done) => {
                        self.abort_streaks[done.container.index()] = 0;
                    }
                    FabricEvent::LoadAborted { atom, container, at } => {
                        let owner = self.fabric.owner_of(container).unwrap_or(0);
                        let streak = &mut self.abort_streaks[container.index()];
                        *streak += 1;
                        let exhausted = *streak > self.recovery.max_retries;
                        if exhausted
                            && !self.fabric.containers()[container.index()].is_quarantined()
                        {
                            // A tile that rejects bitstream after bitstream
                            // is broken: take it out of service and re-plan
                            // on the shrunken fabric. The schedulers re-issue
                            // whatever the new plans still need.
                            self.abort_streaks[container.index()] = 0;
                            self.fabric
                                .quarantine(container)
                                .expect("fabric event names one of its own containers");
                            // Structural change: invalidate every plan
                            // memoised against the old fabric shape.
                            self.epoch = self.epoch.wrapping_add(1);
                            self.plan_stats.epoch_bumps += 1;
                            needs_replan = true;
                        } else {
                            let attempt = self.abort_streaks[container.index()];
                            // Salted by container so simultaneous aborts on
                            // different tiles de-correlate instead of
                            // retrying as a convoy; with the default zero
                            // jitter seed this is exactly the classic
                            // jitterless schedule.
                            let salt = container.index() as u64;
                            let delay = self.recovery.backoff_cycles_salted(attempt, salt);
                            self.fabric
                                .enqueue_load_app(owner, atom, at.saturating_add(delay));
                            self.contexts[usize::from(owner)].load_retries += 1;
                        }
                    }
                    FabricEvent::AtomCorrupted { atom, container, at } => {
                        if self.recovery.scrub_on_seu {
                            // Scrub-and-reload on behalf of whoever loaded
                            // the atom: the faulty container is a preferred
                            // load target, so this physically rewrites the
                            // corrupted region.
                            let owner = self.fabric.owner_of(container).unwrap_or(0);
                            self.fabric.enqueue_load_app(owner, atom, at);
                            self.contexts[usize::from(owner)].load_retries += 1;
                        }
                    }
                    FabricEvent::ContainerFailed { .. } => {
                        // Permanent tile failure: same invalidation rule
                        // as a quarantine.
                        self.epoch = self.epoch.wrapping_add(1);
                        self.plan_stats.epoch_bumps += 1;
                        needs_replan = true;
                    }
                }
            }
            if needs_replan {
                self.replan();
            }
        }
        self.scratch.event_buf = events;
    }

    /// Re-plans every application with an active hot spot after the
    /// usable-container set shrank (app order, so the outcome is
    /// deterministic). A 1-tenant arbiter re-plans exactly itself.
    fn replan(&mut self) {
        for app in 0..self.contexts.len() {
            if self.contexts[app].current_hot_spot.is_none()
                || self.contexts[app].last_demands.is_empty()
            {
                continue;
            }
            let demands = std::mem::take(&mut self.contexts[app].last_demands);
            // Validation failures cannot occur here: the same demands passed
            // planning when the hot spot was entered.
            let result = self.plan_app(app, &demands);
            debug_assert!(result.is_ok());
            self.contexts[app].last_demands = demands;
        }
    }

    /// The fastest Molecule variant of `si` available to `app` right now,
    /// as `(variant index, latency)`, memoised per fabric generation.
    ///
    /// # Panics
    ///
    /// Panics if `si` is outside the library.
    pub fn best_available_variant(&mut self, app: u16, si: SiId) -> Option<(usize, u32)> {
        let fabric = &self.fabric;
        let generation = fabric.generation();
        let lib = self.library;
        let cache = &mut self.contexts[usize::from(app)].best_cache[si.index()];
        if cache.generation != generation {
            let def = lib.si(si).expect("si within library");
            let available = fabric.available();
            cache.best = def
                .variants()
                .iter()
                .enumerate()
                .filter(|(_, v)| v.is_available(available))
                .min_by_key(|(_, v)| v.latency)
                .map(|(idx, v)| (idx, v.latency));
            cache.generation = generation;
        }
        cache.best
    }

    /// Executes one SI of application `app` at cycle `now`: forwards it to
    /// the fastest available Molecule or traps to the base instruction
    /// set, and records the execution for `app`'s monitor. Fabric events
    /// due at or before `now` (completed loads, faults) are processed
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `si` is outside the library.
    pub fn execute_si(&mut self, app: u16, si: SiId, now: u64) -> SiExecution {
        self.sync_fabric(now);
        let lib = self.library;
        let def = lib.si(si).expect("si within library");
        let execution = match self.best_available_variant(app, si) {
            Some((idx, latency)) if latency < def.software_latency() => {
                self.fabric.mark_used(&def.variants()[idx].atoms, now);
                SiExecution {
                    latency,
                    variant_index: Some(idx),
                }
            }
            _ => SiExecution {
                latency: def.software_latency(),
                variant_index: None,
            },
        };
        let ctx = &mut self.contexts[usize::from(app)];
        if let Some(hs) = ctx.current_hot_spot {
            ctx.monitor.record_execution(hs, si);
        }
        execution
    }

    /// Executes a *burst* of `count` back-to-back executions of `si` for
    /// application `app`, starting at cycle `start`, each followed by
    /// `overhead` cycles of base-processor work (loop control, address
    /// generation). Clears `segments` and writes the burst's
    /// homogeneous-latency segments into it, so a caller looping over many
    /// bursts reuses one buffer instead of allocating per burst (the single
    /// hottest line of a trace replay).
    ///
    /// Equivalent to calling [`FabricArbiter::execute_si`] `count` times at
    /// the appropriate cycles, but runs in `O(reconfiguration events)`
    /// instead of `O(count)`: the burst is split into segments at the
    /// cycles where a completed Atom load upgrades the SI's latency.
    ///
    /// # Panics
    ///
    /// Panics if `si` is outside the library.
    pub fn execute_burst_into(
        &mut self,
        app: u16,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
        segments: &mut Vec<BurstSegment>,
    ) {
        segments.clear();
        let lib = self.library;
        let def = lib.si(si).expect("si within library");
        let mut t = start;
        let mut remaining = u64::from(count);
        while remaining > 0 {
            // One event scan per segment: process due events (rare), or
            // just land the clock on `t` and reuse the scan's result as
            // the segment-splitting horizon.
            let next_event = match self.fabric.next_event_at() {
                Some(event) if event <= t => {
                    self.sync_fabric(t);
                    self.fabric.next_event_at()
                }
                other => {
                    self.fabric.advance_clock(t);
                    other
                }
            };
            let (latency, variant_index) = match self.best_available_variant(app, si) {
                Some((idx, latency)) if latency < def.software_latency() => (latency, Some(idx)),
                _ => (def.software_latency(), None),
            };
            if let Some(idx) = variant_index {
                match self.scratch.used_masks.get(si.index()).and_then(|m| m.get(idx)) {
                    Some(&mask) => self.fabric.mark_used_types(mask, t),
                    None => self.fabric.mark_used(&def.variants()[idx].atoms, t),
                }
            }
            let per = u64::from(latency) + u64::from(overhead);
            let n = match next_event {
                Some(event) if event > t => {
                    let until_event = (event - t).div_ceil(per);
                    until_event.min(remaining)
                }
                _ => remaining,
            };
            segments.push(match variant_index {
                Some(v) => BurstSegment::hardware(t, n, latency, v),
                None => BurstSegment::software(t, n, latency),
            });
            t += n * per;
            remaining -= n;
        }
        let ctx = &mut self.contexts[usize::from(app)];
        if let Some(hs) = ctx.current_hot_spot {
            ctx.monitor.record_executions(hs, si, u64::from(count));
        }
    }

    /// Batched variant of [`FabricArbiter::execute_burst_into`] for
    /// application `app`: consumes a prefix of `bursts` — `(si, count,
    /// overhead)` triples starting at cycle `start` — that provably
    /// completes **before the next internal fabric event**, pushes exactly
    /// one unsplit segment per non-empty consumed burst onto `segments`
    /// (which is cleared first), and returns how many bursts were
    /// consumed. Zero-count bursts are consumed as no-ops (no segment, no
    /// monitor record), matching the trace replayer, which skips them
    /// entirely.
    ///
    /// Bit-identical to calling `execute_burst_into` once per consumed
    /// burst: the event horizon is checked per burst, so every consumed
    /// burst is a single segment with the same start, latency, variant and
    /// usage timestamps, the monitor receives the same per-burst counts in
    /// the same order, and the clock lands on the start of the last
    /// consumed burst exactly as the per-burst path leaves it. The horizon
    /// is stable across the loop: no events are processed, and a pending
    /// deferred load start keeps its `not_before` time while the clock
    /// stays below it.
    ///
    /// Returns 0 (consuming nothing) when a fabric event is already due at
    /// or before `start`; the caller then falls back to the per-burst path,
    /// which processes it.
    ///
    /// # Panics
    ///
    /// Panics if a consumed burst's `si` is outside the library.
    pub fn execute_bursts_batched<I>(
        &mut self,
        app: u16,
        bursts: I,
        start: u64,
        segments: &mut Vec<BurstSegment>,
    ) -> usize
    where
        I: IntoIterator<Item = (SiId, u32, u32)>,
    {
        segments.clear();
        let horizon = match self.fabric.next_event_at() {
            Some(event) if event <= start => return 0,
            other => other,
        };
        let lib = self.library;
        // A batch processes no fabric events, so the fabric generation is
        // constant across the loop: each distinct SI resolves its variant
        // once into the memo, monitor counts fold into one flush per SI
        // (its counters are add-accumulate, so the folded recording is
        // state-identical to the per-burst sequence), and the clock lands
        // once on the start of the last consumed non-empty burst — the
        // exact cycle the per-burst path leaves it on.
        let mut memo = std::mem::take(&mut self.scratch.batch_memo);
        memo.clear();
        memo.resize(lib.len(), BatchMemo::default());
        // Deferred LRU flush buffers one mark per SI on the stack; a
        // library too large for it (never the paper's) marks inline.
        let mut marks: [(u64, u64); 64] = [(0, 0); 64];
        let defer_marks = memo.len() <= marks.len();
        let mut t = start;
        let mut consumed = 0;
        let mut last_started = None;
        for (si, count, overhead) in bursts {
            if count == 0 {
                consumed += 1;
                continue;
            }
            let mi = si.index();
            if !memo[mi].resolved {
                let def = lib.si(si).expect("si within library");
                let (latency, variant) = match self.best_available_variant(app, si) {
                    Some((idx, latency)) if latency < def.software_latency() => {
                        (latency, Some(idx))
                    }
                    _ => (def.software_latency(), None),
                };
                let mask = variant.and_then(|idx| {
                    self.scratch.used_masks.get(mi).and_then(|m| m.get(idx)).copied()
                });
                memo[mi] = BatchMemo {
                    resolved: true,
                    latency,
                    variant,
                    mask,
                    executed: 0,
                    last_used: None,
                };
            }
            let m = &mut memo[mi];
            let per = u64::from(m.latency) + u64::from(overhead);
            // Unsplit iff the whole burst fits strictly before the horizon
            // — `div_ceil(event − t, per) ≥ count` exactly as in
            // `execute_burst_into`, restated multiplicatively (in u128, so
            // extreme `count × per` products cannot wrap) to keep the
            // 64-bit division off the per-burst path.
            if let Some(event) = horizon {
                if event <= t
                    || u128::from(event - t) <= (u128::from(count) - 1) * u128::from(per)
                {
                    break;
                }
            }
            match (m.variant, m.mask) {
                // LRU marking is deferred: only the *last* use of each
                // type inside the batch survives (assignments of a
                // monotone clock), so `last_used` per SI plus an ordered
                // flush below lands every `type_used` stamp on exactly
                // the cycle the per-burst sequence would leave.
                (Some(_), Some(_)) if defer_marks => m.last_used = Some(t),
                (Some(_), Some(mask)) => self.fabric.mark_used_types(mask, t),
                (Some(idx), None) => {
                    let def = lib.si(si).expect("si within library");
                    self.fabric.mark_used(&def.variants()[idx].atoms, t);
                }
                (None, _) => {}
            }
            segments.push(match m.variant {
                Some(v) => BurstSegment::hardware(t, u64::from(count), m.latency, v),
                None => BurstSegment::software(t, u64::from(count), m.latency),
            });
            m.executed += u64::from(count);
            last_started = Some(t);
            t += u64::from(count) * per;
            consumed += 1;
        }
        // Flush deferred LRU marks oldest-first: a later (larger) stamp
        // must win on types shared between SIs, exactly as the per-burst
        // assignment order would have it.
        let mut n_marks = 0;
        for m in &memo {
            if let (Some(at), Some(mask)) = (m.last_used, m.mask) {
                marks[n_marks] = (at, mask);
                n_marks += 1;
            }
        }
        let marks = &mut marks[..n_marks];
        marks.sort_unstable_by_key(|&(at, _)| at);
        for &(at, mask) in marks.iter() {
            self.fabric.mark_used_types(mask, at);
        }
        if let Some(at) = last_started {
            self.fabric.advance_clock(at);
        }
        let ctx = &mut self.contexts[usize::from(app)];
        if let Some(hs) = ctx.current_hot_spot {
            for (i, m) in memo.iter().enumerate() {
                if m.executed > 0 {
                    let si = SiId(u16::try_from(i).expect("library index fits u16"));
                    ctx.monitor.record_executions(hs, si, m.executed);
                }
            }
        }
        self.scratch.batch_memo = memo;
        consumed
    }

    /// Leaves application `app`'s current hot spot, folding measured
    /// execution counts into its monitor's expectations.
    pub fn exit_hot_spot(&mut self, app: u16, now: u64) {
        self.sync_fabric(now);
        let ctx = &mut self.contexts[usize::from(app)];
        if let Some(hs) = ctx.current_hot_spot.take() {
            ctx.monitor.end_hot_spot(hs);
        }
    }

    /// Advances the fabric to `now`, applying the recovery policy to any
    /// fault events on the way.
    pub fn advance_to(&mut self, now: u64) {
        self.sync_fabric(now);
    }

    /// Enables (or disables) decision capture for application `app`: while
    /// on, every Molecule selection + Atom schedule computed for `app`
    /// (including replays of memoised plans) is recorded as a
    /// [`DecisionExplain`], drained via [`FabricArbiter::take_decisions`].
    /// Off by default — the hot path then performs no extra work.
    /// Disabling drops any decisions not yet drained.
    pub fn set_explain_enabled(&mut self, app: u16, enabled: bool) {
        let ctx = &mut self.contexts[usize::from(app)];
        ctx.explain_enabled = enabled;
        if !enabled {
            ctx.decisions.clear();
        }
    }

    /// Whether decision capture is on for application `app`.
    #[must_use]
    pub fn explain_enabled(&self, app: u16) -> bool {
        self.contexts[usize::from(app)].explain_enabled
    }

    /// Moves `app`'s captured decisions (chronological order) into `out`.
    pub fn take_decisions(&mut self, app: u16, out: &mut Vec<DecisionExplain>) {
        out.append(&mut self.contexts[usize::from(app)].decisions);
    }

    /// Enables (or disables) the fabric's container-transition journal
    /// (see [`rispp_fabric::Fabric::set_journal_enabled`]).
    pub fn set_journal_enabled(&mut self, enabled: bool) {
        self.fabric.set_journal_enabled(enabled);
    }

    /// Moves the fabric's buffered journal entries into `out`. The journal
    /// is substrate-wide, so with several tenants the entries go to
    /// whichever tenant drains first.
    pub fn drain_fabric_journal(&mut self, out: &mut Vec<rispp_fabric::FabricJournalEntry>) {
        self.fabric.drain_journal(out);
    }

    /// The active fault-recovery policy (shared by all contexts).
    #[must_use]
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Self-healing counters as seen by application `app`. Fault counts
    /// are substrate-wide (faults on a shared substrate hit everyone);
    /// retries and software degradations are per tenant.
    #[must_use]
    pub fn recovery_stats(&self, app: u16) -> RecoveryStats {
        let a = usize::from(app);
        let fs = self.fabric.stats();
        RecoveryStats {
            faults_injected: fs.loads_aborted + fs.seu_corruptions + fs.permanent_failures,
            load_retries: self.contexts[a].load_retries,
            containers_quarantined: fs.containers_quarantined,
            degraded_to_software: self.contexts[a].degraded_to_software,
            fault_cycles_lost: fs.fault_cycles_lost,
        }
    }

    /// Reconfiguration `(loads_completed, port_busy_cycles)` attributable
    /// to application `app`.
    #[must_use]
    pub fn app_port_stats(&self, app: u16) -> (u64, u64) {
        self.fabric.app_port_stats(app)
    }

    /// Foreign atoms `app`'s plans found already loaded by co-tenants
    /// (cross-app reuse; zero with one tenant).
    #[must_use]
    pub fn atoms_shared(&self, app: u16) -> u64 {
        self.contexts[usize::from(app)].atoms_shared
    }

    /// Total contested evictions across the substrate: loads that evicted
    /// an atom owned by a different application (zero with one tenant).
    #[must_use]
    pub fn contested_evictions(&self) -> u64 {
        self.fabric.stats().evictions_contested
    }

    /// Effective latency of `si` with the atoms available right now.
    #[must_use]
    pub fn current_latency(&self, si: SiId) -> u32 {
        self.library
            .si(si)
            .map(|def| def.best_latency(self.fabric.available()))
            .unwrap_or(0)
    }

    /// Atoms currently available on the fabric.
    #[must_use]
    pub fn available_atoms(&self) -> &Molecule {
        self.fabric.available()
    }

    /// Deterministic plan-cache counters of this arbiter (all zero when no
    /// cache is attached — planning then always runs from scratch).
    #[must_use]
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_stats
    }

    /// Current plan-invalidation epoch of the fabric: bumped on every
    /// container quarantine and permanent tile failure, and embedded in
    /// every plan key derived afterwards.
    #[must_use]
    pub fn fabric_epoch(&self) -> u64 {
        self.epoch
    }
}

/// The `u16` application tag used on the fabric queue/owner records.
fn app_tag(app: usize) -> u16 {
    u16::try_from(app).expect("application index fits u16")
}

/// Builder for [`FabricArbiter`].
#[derive(Debug)]
pub struct FabricArbiterBuilder<'a> {
    library: &'a SiLibrary,
    containers: u16,
    tenants: u16,
    scheduler: SchedulerKind,
    forecast: ForecastPolicy,
    port_bandwidth: Option<u64>,
    fault: Option<FaultModel>,
    recovery: RecoveryPolicy,
    explain: bool,
    plan_cache: Option<PlanCacheHandle>,
}

impl<'a> FabricArbiterBuilder<'a> {
    /// Sets the number of Atom Containers of the substrate (default 10,
    /// the paper sweeps 5–24).
    #[must_use]
    pub fn containers(mut self, containers: u16) -> Self {
        self.containers = containers;
        self
    }

    /// Sets the number of application contexts (default 1).
    #[must_use]
    pub fn tenants(mut self, tenants: u16) -> Self {
        self.tenants = tenants.max(1);
        self
    }

    /// Chooses the scheduling strategy for every context (default HEF).
    #[must_use]
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Chooses the forecast policy (default: EWMA weight 2).
    #[must_use]
    pub fn forecast(mut self, policy: ForecastPolicy) -> Self {
        self.forecast = policy;
        self
    }

    /// Overrides the reconfiguration-port bandwidth in bytes per second
    /// (default: the prototype's SelectMAP/ICAP port).
    #[must_use]
    pub fn port_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.port_bandwidth = Some(bytes_per_sec);
        self
    }

    /// Attaches a seeded [`FaultModel`] to the fabric: the fabric injects
    /// CRC aborts, SEU corruption and permanent tile failures, and the
    /// arbiter heals them per its [`RecoveryPolicy`]. A
    /// [null](FaultModel::is_null) model leaves behaviour bit-identical to
    /// not attaching one.
    #[must_use]
    pub fn fault_model(mut self, model: FaultModel) -> Self {
        self.fault = Some(model);
        self
    }

    /// Sets the fault-recovery policy shared by all contexts (default: 3
    /// retries, 1024-cycle base backoff, scrub on SEU).
    #[must_use]
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Enables decision capture from the start for every context.
    #[must_use]
    pub fn explain(mut self, enabled: bool) -> Self {
        self.explain = enabled;
        self
    }

    /// Attaches a [`PlanCache`](crate::PlanCache) through `handle`:
    /// planning decisions are memoised and replayed on verified key hits.
    /// The handle may wrap a cache shared across runs (sweeps, the job
    /// server); without one, every hot-spot entry plans from scratch.
    #[must_use]
    pub fn plan_cache(mut self, handle: PlanCacheHandle) -> Self {
        self.plan_cache = Some(handle);
        self
    }

    /// Finalises the arbiter with an empty fabric at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if the configured port bandwidth is zero; validate untrusted
    /// values with [`rispp_fabric::ReconfigPortConfig::validate`] before
    /// building.
    #[must_use]
    pub fn build(self) -> FabricArbiter<'a> {
        let mut config = FabricConfig::prototype(self.containers);
        if let Some(bw) = self.port_bandwidth {
            config.port = rispp_fabric::ReconfigPortConfig::with_bandwidth(bw);
        }
        let fabric = match self.fault {
            Some(model) => Fabric::with_fault_model(config, self.library.universe(), model),
            None => Fabric::new(config, self.library.universe()),
        };
        let arity = self.library.arity();
        let contexts: Vec<AppContext> = (0..self.tenants)
            .map(|_| AppContext {
                monitor: ExecutionMonitor::new(self.forecast),
                current_hot_spot: None,
                selected: Vec::new(),
                best_cache: vec![BestVariantCache::default(); self.library.len()],
                last_demands: Vec::new(),
                supremum: Molecule::zero(arity),
                load_retries: 0,
                degraded_to_software: 0,
                atoms_shared: 0,
                explain_enabled: self.explain,
                decisions: Vec::new(),
            })
            .collect();
        let abort_streaks = vec![0u32; usize::from(fabric.container_count())];
        let used_masks = if arity <= 64 {
            (0..self.library.len())
                .map(|i| {
                    self.library
                        .si(SiId(i as u16))
                        .expect("index within library")
                        .variants()
                        .iter()
                        .map(|v| v.atoms.nonzero_mask())
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        let plan_namespace = self
            .plan_cache
            .as_ref()
            .map_or(0, |h| h.namespace() ^ library_fingerprint(self.library));
        FabricArbiter {
            library: self.library,
            fabric,
            contexts,
            scratch: SharedScratch {
                used_masks,
                ..SharedScratch::default()
            },
            recovery: self.recovery,
            abort_streaks,
            scheduler_kind: self.scheduler,
            plan_cache: self.plan_cache,
            plan_namespace,
            epoch: 0,
            plan_stats: PlanCacheStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_model::{AtomTypeInfo, AtomUniverse, SiLibraryBuilder};

    fn library() -> SiLibrary {
        let universe =
            AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("FAST", 1000)
            .unwrap()
            .molecule(Molecule::from_counts([1, 0]), 100)
            .unwrap()
            .molecule(Molecule::from_counts([2, 1]), 30)
            .unwrap();
        b.special_instruction("OTHER", 600)
            .unwrap()
            .molecule(Molecule::from_counts([0, 1]), 80)
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn si_executes_in_software_until_atoms_arrive() {
        let lib = library();
        let mut arb = FabricArbiter::builder(&lib).containers(4).build();
        arb.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 100)], 0)
            .unwrap();
        let e0 = arb.execute_si(0, SiId(0), 0);
        assert_eq!(e0.latency, 1000);
        assert!(!e0.is_hardware());
        // After plenty of time all scheduled atoms are loaded.
        let e1 = arb.execute_si(0, SiId(0), 10_000_000);
        assert_eq!(e1.latency, 30);
        assert!(e1.is_hardware());
    }

    #[test]
    fn gradual_upgrade_is_visible_between_loads() {
        let lib = library();
        let mut arb = FabricArbiter::builder(&lib).containers(4).build();
        arb.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 100)], 0)
            .unwrap();
        // One atom (~88K cycles for the 60,488-byte default bitstream)
        // upgrades the SI to the 1-atom molecule.
        let e = arb.execute_si(0, SiId(0), 90_000);
        assert_eq!(e.latency, 100);
        assert_eq!(e.variant_index, Some(0));
    }

    #[test]
    fn monitor_learns_profile_across_iterations() {
        let lib = library();
        let mut arb = FabricArbiter::builder(&lib).containers(4).build();
        // First visit: hint says SI0 dominates, but actually SI1 executes.
        arb.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 1000), (SiId(1), 1)], 0)
            .unwrap();
        for i in 0..50 {
            arb.execute_si(0, SiId(1), i * 10);
        }
        arb.exit_hot_spot(0, 1_000);
        assert_eq!(arb.monitor(0).expected(HotSpotId(0), SiId(1)), 50);
        // Second visit uses monitored values: SI1 must now be selected.
        arb.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 1000), (SiId(1), 1)], 2_000)
            .unwrap();
        assert!(arb.selected(0).iter().any(|s| s.si == SiId(1)));
        assert!(arb.selected(0).iter().all(|s| s.si != SiId(0)));
    }

    #[test]
    fn hot_spot_switch_replaces_pending_schedule() {
        let lib = library();
        let mut arb = FabricArbiter::builder(&lib).containers(2).build();
        arb.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 100)], 0)
            .unwrap();
        arb.exit_hot_spot(0, 10);
        arb.enter_hot_spot(0, HotSpotId(1), &[(SiId(1), 100)], 20)
            .unwrap();
        // The new selection only contains OTHER; its single molecule needs
        // atom type A2, so after the switch everything queued or streaming
        // beyond the unabortable in-flight load targets A2.
        assert!(arb.selected(0).iter().all(|s| s.si == SiId(1)));
        let e = arb.execute_si(0, SiId(1), 10_000_000);
        assert_eq!(e.latency, 80);
        assert_eq!(arb.available_atoms().count(1), 1);
    }

    #[test]
    fn current_latency_tracks_available_atoms() {
        let lib = library();
        let mut arb = FabricArbiter::builder(&lib).containers(4).build();
        assert_eq!(arb.current_latency(SiId(0)), 1000);
        arb.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 10)], 0)
            .unwrap();
        arb.advance_to(50_000_000);
        assert_eq!(arb.current_latency(SiId(0)), 30);
    }

    #[test]
    fn burst_execution_matches_single_stepping() {
        let lib = library();
        // Run the same workload through execute_si and execute_burst_into
        // and compare the final cycle and per-latency execution counts.
        let mut single = FabricArbiter::builder(&lib).containers(4).build();
        single
            .enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 100)], 0)
            .unwrap();
        let overhead = 25u32;
        let mut t_single = 0u64;
        let mut lat_counts_single: std::collections::BTreeMap<u32, u64> = Default::default();
        for _ in 0..400 {
            let e = single.execute_si(0, SiId(0), t_single);
            *lat_counts_single.entry(e.latency).or_default() += 1;
            t_single += u64::from(e.latency) + u64::from(overhead);
        }

        let mut burst = FabricArbiter::builder(&lib).containers(4).build();
        burst
            .enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 100)], 0)
            .unwrap();
        let mut segments = Vec::new();
        burst.execute_burst_into(0, SiId(0), 400, overhead, 0, &mut segments);
        let mut lat_counts_burst: std::collections::BTreeMap<u32, u64> = Default::default();
        let mut t_burst = 0u64;
        for s in &segments {
            *lat_counts_burst.entry(s.latency).or_default() += s.count;
            t_burst = s.start + s.count * (u64::from(s.latency) + u64::from(overhead));
        }
        assert_eq!(lat_counts_single, lat_counts_burst);
        assert_eq!(t_single, t_burst);
        // Latencies must be monotone decreasing across segments.
        for w in segments.windows(2) {
            assert!(w[1].latency <= w[0].latency);
        }
    }

    #[test]
    fn burst_records_monitor_counts() {
        let lib = library();
        let mut arb = FabricArbiter::builder(&lib).containers(4).build();
        arb.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 10)], 0)
            .unwrap();
        arb.execute_burst_into(0, SiId(0), 123, 0, 0, &mut Vec::new());
        assert_eq!(arb.monitor(0).live_count(HotSpotId(0), SiId(0)), 123);
    }

    #[test]
    fn builder_configures_scheduler_kind() {
        let lib = library();
        for kind in SchedulerKind::ALL {
            let arb = FabricArbiter::builder(&lib)
                .containers(6)
                .scheduler(kind)
                .forecast(ForecastPolicy::LastValue)
                .build();
            assert_eq!(arb.fabric().container_count(), 6);
        }
    }
}
