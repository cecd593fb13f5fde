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

use rispp_fabric::{Fabric, FabricConfig, FabricEvent, FaultModel};
use rispp_model::{Molecule, SiDefinition, SiId, SiLibrary};
use rispp_monitor::{ExecutionMonitor, ForecastPolicy, HotSpotId};

use crate::burst::{Burst, BurstBlocks, BurstRun, SiRate, SiTotals, Stretch, StretchWalker};
use crate::context::UpgradeBuffers;
use crate::explain::{DecisionExplain, ScheduleExplain, SelectionExplain};
use crate::plan_cache::{
    digest_words, library_fingerprint, PlanCacheHandle, PlanCacheStats, PlanKey, PlannedDecision,
};
use crate::recovery::{backoff_cycles, RecoveryStats, DEFAULT_MAX_RETRIES};
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

impl BestVariantCache {
    /// The fastest variant of `def` available on `fabric` as `(variant
    /// index, latency)`, looked up again only when the fabric's generation
    /// moved.
    fn get(&mut self, fabric: &Fabric, def: &SiDefinition) -> Option<(usize, u32)> {
        if self.generation != fabric.generation() {
            self.best = def
                .fastest_available_index(fabric.available())
                .map(|idx| (idx, def.variants()[idx].latency));
            self.generation = fabric.generation();
        }
        self.best
    }
}

/// How `si` runs until `fabric` changes: on its fastest available
/// Molecule (memoised in `caches`, one per SI), or trapping to software
/// when none is faster.
fn rate(fabric: &Fabric, library: &SiLibrary, caches: &mut [BestVariantCache], si: SiId) -> SiRate {
    let def = library.si(si).expect("si within library");
    let software = def.software_latency();
    match caches[si.index()].get(fabric, def) {
        Some((idx, latency)) if latency < software => SiRate {
            latency,
            variant: Some(idx),
        },
        _ => SiRate {
            latency: software,
            variant: None,
        },
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
    /// The stretch walk of the batched burst calls — see
    /// [`FabricArbiter::execute_bursts_batched`].
    walker: StretchWalker,
    /// Deferred LRU marks `(stamp, SI, variant)` of one batched call, at
    /// most one per SI, flushed oldest-first.
    marks: Vec<(u64, SiId, usize)>,
    /// Event window reused by [`FabricArbiter::sync_fabric`], so the
    /// event-processing hot path allocates nothing.
    event_buf: Vec<FabricEvent>,
}

/// Where a batched call reports what it consumed.
enum StretchOut<'s> {
    /// One unsplit segment per non-empty burst.
    Segments(&'s mut Vec<BurstSegment>),
    /// Per-SI totals once the stretch ends.
    Totals(&'s mut dyn FnMut(SiTotals)),
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
    /// Consecutive aborted loads tolerated per container before the tile
    /// is quarantined.
    max_retries: u32,
    /// Decision capture for every context, fixed at build time.
    explain: bool,
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
            max_retries: DEFAULT_MAX_RETRIES,
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
            plan_hash = digest_words(&key);
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
                let decision = Arc::new(self.decide(demands, pressure, &key)?);
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

    /// Decides a fresh plan for `demands`: Molecule selection within the
    /// usable containers, then the Atom schedule, plus both explain records
    /// when capture is on. Reads only plan-key material (`key`, empty
    /// without a cache), so the decision may be memoised.
    fn decide(
        &mut self,
        demands: &[(SiId, u64)],
        pressure: Vec<u64>,
        key: &[u64],
    ) -> Result<PlannedDecision, CoreError> {
        let fabric = &self.fabric;
        let explain = self.explain;
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
        let request =
            ScheduleRequest::new(self.library, selected, fabric.available().clone(), expected)?
                .with_foreign_pressure(pressure);
        let mut schedule_explain =
            explain.then(|| ScheduleExplain::new(self.scheduler_kind.abbreviation()));
        let schedule = self.scheduler_kind.schedule_with(
            &request,
            &mut self.scratch.sched_buffers,
            schedule_explain.as_mut(),
        );
        debug_assert!(schedule.validate(&request).is_ok());
        let decision = PlannedDecision::new(
            key,
            request.selected(),
            schedule.steps().iter().map(|step| step.atom),
            selection_explain
                .zip(schedule_explain)
                .map(|(selection, schedule)| (Arc::new(selection), Arc::new(schedule))),
        );
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
        let shared = self.contexts.len() > 1;
        let ctx = &mut self.contexts[app];
        ctx.selected.clear();
        ctx.selected.extend(decision.selected());
        decision.supremum_into(self.library, &mut ctx.supremum);
        // Quarantines shrank the fabric below what any Molecule needs: the
        // hot spot continues purely on the cISA software path.
        let degraded =
            !demands.is_empty() && ctx.selected.is_empty() && usable < fabric.container_count();
        // Cross-app atom reuse: atoms this plan wants that a co-tenant
        // already has loaded arrive for free.
        let mut reused = 0u64;
        if shared {
            for c in fabric.containers() {
                if let (Some(atom), Some(owner)) = (c.loaded_atom(), fabric.owner_of(c.id())) {
                    if usize::from(owner) != app && ctx.supremum.count(atom.index()) > 0 {
                        reused += 1;
                    }
                }
            }
        }
        ctx.degraded_to_software += u64::from(degraded);
        if self.explain {
            // The explain flag is a key field, so a cached decision carries
            // its records whenever capture is on; every replay shares them.
            let (selection, schedule) = decision
                .explain
                .clone()
                .expect("explained decisions carry their records");
            ctx.decisions.push(DecisionExplain {
                now: fabric.now(),
                hot_spot: ctx.current_hot_spot,
                containers: usable,
                selection,
                schedule,
            });
        }
        ctx.atoms_shared += reused;
        // The fabric protects the union of every co-tenant's claim, so one
        // tenant's plan can never unprotect what another still needs.
        let protect = Molecule::supremum(self.contexts.iter().map(|c| &c.supremum))
            .unwrap_or_else(|| Molecule::zero(self.library.arity()));
        let fabric = &mut self.fabric;
        fabric.clear_pending_app(app_tag(app));
        fabric.set_protected(protect);
        fabric.enqueue_schedule_app(app_tag(app), decision.atoms());
    }

    /// Writes the packed plan key for planning `demands` of `app` into
    /// `key` (see the `crate::PlanCache` module docs for the layout):
    /// every input [`decide`](Self::decide) reads and nothing else. Where
    /// the Atoms sit and who owns them is read only by
    /// [`apply_decision`](Self::apply_decision), live on a hit as on a
    /// miss.
    fn build_plan_key(
        &self,
        app: usize,
        demands: &[(SiId, u64)],
        pressure: &[u64],
        key: &mut Vec<u64>,
    ) {
        let fabric = &self.fabric;
        PlanKey {
            namespace: self.plan_namespace,
            scheduler: self.scheduler_kind,
            epoch: self.epoch,
            tenants: self.contexts.len(),
            app,
            explain: self.explain,
            usable: fabric.usable_container_count(),
            containers: fabric.container_count(),
            demands,
            available: fabric.available().counts(),
            pressure,
        }
        .write(key);
    }

    /// Advances the fabric to `now` and heals every fault event (see
    /// [`crate::recovery`]), attributing retries to the owning application:
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
                    FabricEvent::LoadAborted {
                        atom,
                        container,
                        at,
                    } => {
                        let owner = self.fabric.owner_of(container).unwrap_or(0);
                        let streak = &mut self.abort_streaks[container.index()];
                        *streak += 1;
                        let exhausted = *streak > self.max_retries;
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
                            let delay = backoff_cycles(self.abort_streaks[container.index()]);
                            self.fabric
                                .enqueue_load_app(owner, atom, at.saturating_add(delay));
                            self.contexts[usize::from(owner)].load_retries += 1;
                        }
                    }
                    FabricEvent::AtomCorrupted {
                        atom,
                        container,
                        at,
                    } => {
                        // Scrub-and-reload on behalf of whoever loaded the
                        // atom: the faulty container is a preferred load
                        // target, so this physically rewrites the corrupted
                        // region.
                        let owner = self.fabric.owner_of(container).unwrap_or(0);
                        self.fabric.enqueue_load_app(owner, atom, at);
                        self.contexts[usize::from(owner)].load_retries += 1;
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
        let def = self.library.si(si).expect("si within library");
        self.contexts[usize::from(app)].best_cache[si.index()].get(&self.fabric, def)
    }

    /// How `si` runs for `app` until the fabric changes (see [`rate`]).
    fn rate(&mut self, app: u16, si: SiId) -> SiRate {
        let caches = &mut self.contexts[usize::from(app)].best_cache;
        rate(&self.fabric, self.library, caches, si)
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
        let SiRate { latency, variant } = self.rate(app, si);
        if let Some(idx) = variant {
            mark_variant(&mut self.fabric, self.library, si, idx, now);
        }
        let execution = SiExecution {
            latency,
            variant_index: variant,
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
            let SiRate {
                latency,
                variant: variant_index,
            } = self.rate(app, si);
            if let Some(idx) = variant_index {
                mark_variant(&mut self.fabric, self.library, si, idx, t);
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
    /// application `app`: consumes a prefix of `bursts`, laid back to back
    /// from cycle `start`, that provably completes **before the next
    /// internal fabric event**, pushes exactly one unsplit segment per
    /// non-empty consumed burst onto `segments` (which is cleared first),
    /// and returns how many bursts were consumed. Zero-count bursts are
    /// consumed as no-ops (no segment, no monitor record), matching the
    /// trace replayer, which skips them entirely.
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
    pub fn execute_bursts_batched(
        &mut self,
        app: u16,
        bursts: &[Burst],
        start: u64,
        segments: &mut Vec<BurstSegment>,
    ) -> usize {
        segments.clear();
        let run = BurstRun::new(bursts, 0, BurstBlocks::EMPTY);
        self.walk_stretch(app, run, start, StretchOut::Segments(segments))
            .consumed
    }

    /// Totals-only variant of
    /// [`execute_bursts_batched`](Self::execute_bursts_batched): consumes
    /// the same prefix of `run` and leaves the arbiter in the same state,
    /// but reports each SI's executions once through `totals` instead of
    /// one segment per burst, and returns the consumed count with the
    /// cycle the last consumed non-empty burst ends at.
    ///
    /// Where the run reaches a block of its [`BurstBlocks`] index, the
    /// [`StretchWalker`] consumes the whole block from the index's sums
    /// when its last execution starts before the next fabric event. A
    /// partial block, and the block holding the event, go through the
    /// per-burst body.
    ///
    /// # Panics
    ///
    /// Panics if a consumed burst's `si` is outside the library.
    pub fn execute_bursts_totals(
        &mut self,
        app: u16,
        run: BurstRun<'_>,
        start: u64,
        totals: &mut dyn FnMut(SiTotals),
    ) -> Stretch {
        self.walk_stretch(app, run, start, StretchOut::Totals(totals))
    }

    /// Both batched entry points: walks `run` from cycle `start` up to the
    /// next fabric event, then applies what the walk consumed. A batch
    /// processes no fabric events, so the fabric generation, and with it
    /// each SI's best available variant, is constant across the walk.
    /// Monitor counts fold into one record per SI (its counters are
    /// add-accumulate, so the folded recording is state-identical to the
    /// per-burst sequence), and the clock lands once on the start of the
    /// last consumed non-empty burst, the cycle the per-burst path leaves
    /// it on.
    fn walk_stretch(
        &mut self,
        app: u16,
        run: BurstRun<'_>,
        start: u64,
        mut out: StretchOut<'_>,
    ) -> Stretch {
        let (fabric, lib) = (&self.fabric, self.library);
        let caches = &mut self.contexts[usize::from(app)].best_cache;
        let resolve = |si| rate(fabric, lib, caches, si);
        let horizon = fabric.next_event_at();
        let walker = &mut self.scratch.walker;
        let stretch = match &mut out {
            StretchOut::Segments(segments) => {
                walker.walk(run, start, horizon, resolve, |segment| {
                    segments.push(segment)
                })
            }
            StretchOut::Totals(_) => walker.walk(run, start, horizon, resolve, |_| {}),
        };
        // LRU marking is deferred: only the last use of each type inside
        // the batch survives (assignments of a monotone clock), so one
        // stamp per hardware SI, at the start of its last burst, flushed
        // oldest-first (a later stamp must win on types shared between
        // SIs), lands every stamp on the cycle the per-burst sequence
        // would leave.
        let marks = &mut self.scratch.marks;
        marks.clear();
        for si in (0u16..).map(SiId).take(lib.len()) {
            let Some(variant) = walker.ran(si).and_then(|rate| rate.variant) else {
                continue;
            };
            let (at, _) = walker.last_burst(run, si).expect("the SI ran");
            marks.push((at, si, variant));
        }
        marks.sort_unstable_by_key(|&(at, _, _)| at);
        for &(at, si, variant) in marks.iter() {
            mark_variant(&mut self.fabric, lib, si, variant, at);
        }
        if let Some(at) = walker.last_start() {
            self.fabric.advance_clock(at);
        }
        let ctx = &mut self.contexts[usize::from(app)];
        walker.report(|ran| {
            if let Some(hs) = ctx.current_hot_spot {
                ctx.monitor.record_executions(hs, ran.si, ran.executions);
            }
            if let StretchOut::Totals(totals) = &mut out {
                totals(ran);
            }
        });
        stretch
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

    /// Advances the fabric to `now`, healing any fault events on the way.
    pub fn advance_to(&mut self, now: u64) {
        self.sync_fabric(now);
    }

    /// Whether decision capture is on (set at build time by
    /// [`FabricArbiterBuilder::explain`]).
    #[must_use]
    pub fn explain_enabled(&self) -> bool {
        self.explain
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

/// Marks the atom types of variant `variant` of `si` as used at `at`,
/// from the variant's one-word mask where the library has one.
fn mark_variant(fabric: &mut Fabric, library: &SiLibrary, si: SiId, variant: usize, at: u64) {
    let def = library.si(si).expect("si within library");
    match def.variant_masks().get(variant) {
        Some(&mask) => fabric.mark_used_types(mask, at),
        None => fabric.mark_used(&def.variants()[variant].atoms, at),
    }
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
    max_retries: u32,
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
    /// arbiter heals them: aborted loads retry after a backoff doubling
    /// from [`BACKOFF_BASE_CYCLES`](crate::BACKOFF_BASE_CYCLES), corrupted
    /// Atoms are scrubbed by reloading them, and a container exceeding
    /// [`max_retries`](Self::max_retries) is quarantined. A
    /// [null](FaultModel::is_null) model leaves behaviour bit-identical to
    /// not attaching one.
    #[must_use]
    pub fn fault_model(mut self, model: FaultModel) -> Self {
        self.fault = Some(model);
        self
    }

    /// Sets how many consecutive aborted loads a container tolerates
    /// before it is quarantined (default [`DEFAULT_MAX_RETRIES`]).
    #[must_use]
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Enables decision capture for every context: each Molecule selection
    /// and Atom schedule (including replays of memoised plans) is recorded
    /// as a [`DecisionExplain`], drained via
    /// [`FabricArbiter::take_decisions`]. Off by default; the hot path then
    /// does no extra work.
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
                decisions: Vec::new(),
            })
            .collect();
        let abort_streaks = vec![0u32; usize::from(fabric.container_count())];
        let plan_namespace = self
            .plan_cache
            .as_ref()
            .map_or(0, |h| h.namespace() ^ library_fingerprint(self.library));
        FabricArbiter {
            library: self.library,
            fabric,
            contexts,
            scratch: SharedScratch::default(),
            max_retries: self.max_retries,
            explain: self.explain,
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
    fn same_atoms_in_other_containers_share_one_plan() {
        // A loads A2 then A1, B loads A1 then A2: both end with one of
        // each, in swapped containers. The plan key holds the multiset,
        // not the placement, so B's next plan replays A's entry.
        let lib = library();
        let handle = PlanCacheHandle::private();
        let build = || {
            FabricArbiter::builder(&lib)
                .containers(2)
                .plan_cache(handle.clone())
                .build()
        };
        let (fast, other) = ([(SiId(0), 100u64)], [(SiId(1), 100u64)]);
        let both = [(SiId(0), 100u64), (SiId(1), 100u64)];
        let mut arbiters = [build(), build()];
        for (arb, order) in arbiters.iter_mut().zip([[other, fast], [fast, other]]) {
            let mut now = 0;
            for (hot_spot, demands) in (0u16..).zip(order) {
                arb.enter_hot_spot_with_profile(0, HotSpotId(hot_spot), &demands, now)
                    .unwrap();
                now += 10_000_000;
                arb.exit_hot_spot(0, now);
            }
        }
        let [a, b] = &mut arbiters;
        let placement = |arb: &FabricArbiter<'_>| -> Vec<_> {
            arb.fabric()
                .containers()
                .iter()
                .map(|c| c.loaded_atom())
                .collect()
        };
        assert_eq!(a.available_atoms(), b.available_atoms());
        assert_eq!(a.available_atoms().counts(), &[1, 1]);
        assert_ne!(placement(a), placement(b), "the atoms must sit apart");

        a.enter_hot_spot_with_profile(0, HotSpotId(2), &both, 20_000_000)
            .unwrap();
        let entries = handle.cache().len();
        let before = b.plan_cache_stats();
        b.enter_hot_spot_with_profile(0, HotSpotId(2), &both, 20_000_000)
            .unwrap();
        let after = b.plan_cache_stats();
        assert_eq!(after.hits, before.hits + 1, "B must replay A's plan");
        assert_eq!(handle.cache().len(), entries, "one entry serves both");
        assert_eq!(a.selected(0), b.selected(0));
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
