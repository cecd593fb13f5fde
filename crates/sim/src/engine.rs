use rispp_core::{
    BurstSegment, DecisionExplain, FabricArbiter, PlanCacheHandle, PlanCacheStats,
    RecoveryPolicy, RecoveryStats, SchedulerKind,
};
use rispp_fabric::{FabricJournalEntry, FaultModel};
use rispp_model::SiLibrary;
use rispp_monitor::ForecastPolicy;

use crate::backend::{ExecutionSystem, RisppBackend, SoftwareBackend};
use crate::baseline::MolenSystem;
use crate::cancel::{CancelToken, CancellableRun};
use crate::context::TraceContext;
use crate::multi::TenancyConfig;
use crate::observer::{HotSpotOrigin, SimEvent, SimObserver};
use crate::stats::{RunStats, DEFAULT_BUCKET_CYCLES};
use crate::trace::{Invocation, Trace};

/// Which execution system replays the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// The RISPP run-time system with the given scheduler.
    Rispp(SchedulerKind),
    /// Molen-like baseline: one fixed implementation per SI, resident
    /// across hot-spot switches when space allows.
    Molen,
    /// OneChip-like baseline: one fixed implementation per SI in a single
    /// configuration context that is flushed on every hot-spot switch.
    OneChip,
    /// Pure base-processor execution (every SI traps): the paper's 0-AC
    /// reference point of 7,403 M cycles.
    SoftwareOnly,
}

impl SystemKind {
    /// Display label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Rispp(kind) => kind.abbreviation(),
            SystemKind::Molen => "Molen",
            SystemKind::OneChip => "OneChip",
            SystemKind::SoftwareOnly => "Software",
        }
    }
}

/// Fault-injection parameters of a simulation run. Integer fields keep
/// the configuration `Copy + Eq + Hash`, so sweep jobs stay cheap to
/// duplicate across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// Uniform fault rate in parts per million, expanded to a full
    /// [`FaultModel`] via [`FaultModel::uniform_ppm`]. Zero is the null
    /// model: bit-identical to running without fault injection.
    pub rate_ppm: u32,
    /// Seed of the fabric's fault-drawing RNG stream.
    pub seed: u64,
    /// Consecutive aborted loads tolerated per container before the tile
    /// is quarantined.
    pub max_retries: u32,
}

impl FaultConfig {
    /// Default seed of the fault stream (`--fault-seed` default).
    pub const DEFAULT_SEED: u64 = 0xDA7E_2008;

    /// A fault configuration at `rate` (clamped to `[0, 1]`, rounded to
    /// ppm) with the default seed and retry budget.
    #[must_use]
    pub fn uniform(rate: f64) -> Self {
        FaultConfig {
            rate_ppm: FaultModel::uniform(rate, Self::DEFAULT_SEED).crc_abort_ppm,
            seed: Self::DEFAULT_SEED,
            max_retries: RecoveryPolicy::default().max_retries,
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of Atom Containers (RISPP) or container slots (Molen).
    pub containers: u16,
    /// The execution system.
    pub system: SystemKind,
    /// Forecast policy of the online monitor (RISPP only).
    pub forecast: ForecastPolicy,
    /// Collect per-bucket execution counts and latency timelines.
    pub detail: bool,
    /// Statistics bucket width in cycles.
    pub bucket_cycles: u64,
    /// Feed the *measured* per-invocation execution profile to the
    /// run-time system instead of the online forecast (perfect future
    /// knowledge — the upper bound of paper Section 4.2).
    pub oracle: bool,
    /// Reconfiguration-port bandwidth override in bytes per second
    /// (`None`: the prototype's SelectMAP/ICAP port).
    pub port_bandwidth: Option<u64>,
    /// Seeded fault injection (RISPP only; the baselines model ideal
    /// hardware). `None` disables injection entirely.
    pub fault: Option<FaultConfig>,
    /// Capture every selection+schedule decision as
    /// [`SimEvent::Decision`] events (RISPP only). Off by default: the
    /// decision recorder then does no work at all.
    pub explain: bool,
    /// Record the fabric's container-transition journal and emit it as
    /// [`SimEvent::ContainerTransition`] events (RISPP only). Off by
    /// default.
    pub journal: bool,
    /// Multi-application tenancy (see [`crate::simulate_multi`]). The
    /// default — one tenant, shared fabric — is the classic single-owner
    /// simulation; [`simulate`] ignores everything but the default.
    pub tenants: TenancyConfig,
    /// Memoise planning decisions in a [`rispp_core::PlanCache`] (RISPP
    /// only). Results are bit-identical either way — a verified hit
    /// replays exactly the decision the planner would have produced — so
    /// this is purely a speed/memory trade. On by default; turning it off
    /// (the reference side of the cache's bit-identity tests) also makes
    /// the engine ignore shared caches handed to it.
    pub plan_cache: bool,
    /// Causal trace context of this run (see [`TraceContext`]). Identity
    /// only: the engine hands it to every attached observer before replay
    /// via [`SimObserver::set_trace_context`], and it never influences
    /// simulation behaviour — results are bit-identical with or without
    /// it. `None` (the default) stamps nothing.
    pub trace: Option<TraceContext>,
}

impl SimConfig {
    /// RISPP configuration with the given scheduler.
    #[must_use]
    pub fn rispp(containers: u16, scheduler: SchedulerKind) -> Self {
        SimConfig {
            containers,
            system: SystemKind::Rispp(scheduler),
            forecast: ForecastPolicy::default(),
            detail: false,
            bucket_cycles: DEFAULT_BUCKET_CYCLES,
            oracle: false,
            port_bandwidth: None,
            fault: None,
            explain: false,
            journal: false,
            tenants: TenancyConfig::default(),
            plan_cache: true,
            trace: None,
        }
    }

    /// Molen-baseline configuration.
    #[must_use]
    pub fn molen(containers: u16) -> Self {
        SimConfig {
            system: SystemKind::Molen,
            ..SimConfig::rispp(containers, SchedulerKind::Hef)
        }
    }

    /// Pure-software configuration (0 Atom Containers).
    #[must_use]
    pub fn software_only() -> Self {
        SimConfig {
            system: SystemKind::SoftwareOnly,
            ..SimConfig::rispp(0, SchedulerKind::Hef)
        }
    }

    /// Enables detailed statistics (builder style).
    #[must_use]
    pub fn with_detail(mut self, detail: bool) -> Self {
        self.detail = detail;
        self
    }

    /// Overrides the forecast policy (builder style).
    #[must_use]
    pub fn with_forecast(mut self, policy: ForecastPolicy) -> Self {
        self.forecast = policy;
        self
    }

    /// Enables oracle (perfect-future-knowledge) profiles (builder style).
    #[must_use]
    pub fn with_oracle(mut self, oracle: bool) -> Self {
        self.oracle = oracle;
        self
    }

    /// Overrides the reconfiguration-port bandwidth (builder style).
    #[must_use]
    pub fn with_port_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.port_bandwidth = Some(bytes_per_sec);
        self
    }

    /// Attaches seeded fault injection (builder style). Only the RISPP
    /// backend injects faults; a `rate_ppm` of zero is the null model and
    /// leaves every result bit-identical to `None`.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Enables scheduler-decision capture (builder style): the RISPP
    /// backend emits one [`SimEvent::Decision`] per selection+schedule.
    /// Simulated cycles and [`RunStats`] are bit-identical either way.
    #[must_use]
    pub fn with_explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }

    /// Enables the fabric container-transition journal (builder style):
    /// the RISPP backend emits [`SimEvent::ContainerTransition`] events.
    /// Simulated cycles and [`RunStats`] are bit-identical either way.
    #[must_use]
    pub fn with_journal(mut self, journal: bool) -> Self {
        self.journal = journal;
        self
    }

    /// Configures multi-application tenancy (builder style): tenant count,
    /// tenancy policy and burst arbitration for
    /// [`crate::simulate_multi`].
    #[must_use]
    pub fn with_tenants(mut self, tenants: TenancyConfig) -> Self {
        self.tenants = tenants;
        self
    }

    /// Enables or disables plan-decision memoisation (builder style). See
    /// [`SimConfig::plan_cache`].
    #[must_use]
    pub fn with_plan_cache(mut self, plan_cache: bool) -> Self {
        self.plan_cache = plan_cache;
        self
    }

    /// Attaches a causal [`TraceContext`] (builder style). Identity only:
    /// observers stamp their exports with it, the simulation itself is
    /// bit-identical with or without one.
    #[must_use]
    pub fn with_trace(mut self, context: TraceContext) -> Self {
        self.trace = Some(context);
        self
    }

    /// Builds the configured execution system over `library`.
    ///
    /// This is the factory behind [`simulate`]: every [`SystemKind`] maps
    /// to one of the built-in [`ExecutionSystem`] implementations. Callers
    /// that want a *custom* backend skip this and hand their own
    /// implementation to [`simulate_with`] directly.
    #[must_use]
    pub fn build_system<'a>(&self, library: &'a SiLibrary) -> Box<dyn ExecutionSystem + 'a> {
        self.build_system_shared(library, None)
    }

    /// [`build_system`](SimConfig::build_system) with an optional *shared*
    /// plan cache: when `plan_cache` is on and `shared` is supplied, the
    /// RISPP backend memoises into it (cross-job/cross-request reuse);
    /// with `None` it gets a private per-run cache. When
    /// [`SimConfig::plan_cache`] is off, `shared` is ignored entirely.
    #[must_use]
    pub fn build_system_shared<'a>(
        &self,
        library: &'a SiLibrary,
        shared: Option<&PlanCacheHandle>,
    ) -> Box<dyn ExecutionSystem + 'a> {
        match self.system {
            SystemKind::Rispp(kind) => Box::new(
                RisppBackend::new(self.build_arbiter(library, kind, 1, shared), 0)
                    .with_oracle(self.oracle),
            ),
            SystemKind::Molen => Box::new(MolenSystem::new(library, self.containers)),
            SystemKind::OneChip => Box::new(MolenSystem::one_chip(library, self.containers)),
            SystemKind::SoftwareOnly => Box::new(SoftwareBackend::new(library)),
        }
    }

    /// The one mapping from a configuration to the RISPP run-time system:
    /// a [`FabricArbiter`] over `containers` Atom Containers running
    /// `scheduler` for `tenants` applications, behind both the solo path
    /// (`tenants == 1`) and the shared-fabric path of
    /// [`crate::simulate_multi`]. When [`SimConfig::plan_cache`] is on the
    /// arbiter memoises into `shared`, or into a private per-run cache.
    pub(crate) fn build_arbiter<'a>(
        &self,
        library: &'a SiLibrary,
        scheduler: SchedulerKind,
        tenants: u16,
        shared: Option<&PlanCacheHandle>,
    ) -> FabricArbiter<'a> {
        let mut builder = FabricArbiter::builder(library)
            .containers(self.containers)
            .tenants(tenants)
            .scheduler(scheduler)
            .forecast(self.forecast)
            .explain(self.explain);
        if self.plan_cache {
            builder = builder.plan_cache(shared.cloned().unwrap_or_else(PlanCacheHandle::private));
        }
        if let Some(bw) = self.port_bandwidth {
            builder = builder.port_bandwidth(bw);
        }
        if let Some(fc) = self.fault {
            builder = builder
                .fault_model(FaultModel::uniform_ppm(fc.rate_ppm, fc.seed))
                .recovery(RecoveryPolicy {
                    max_retries: fc.max_retries,
                    ..RecoveryPolicy::default()
                });
        }
        let mut arbiter = builder.build();
        if self.journal {
            arbiter.set_journal_enabled(true);
        }
        arbiter
    }
}

/// Hands the configured [`TraceContext`], if any, to every observer before
/// replay — the solo and the multi-tenant path alike.
pub(crate) fn set_trace_context(observers: &mut [&mut (dyn SimObserver + '_)], config: &SimConfig) {
    if let Some(ctx) = config.trace {
        for obs in observers.iter_mut() {
            obs.set_trace_context(ctx);
        }
    }
}

pub(crate) fn emit(observers: &mut [&mut (dyn SimObserver + '_)], event: SimEvent) {
    for obs in observers.iter_mut() {
        obs.on_event(&event);
    }
}

/// Checks the backend's completed-load counter and reports any advance to
/// the observers (the engine observes loads at replay granularity).
fn poll_loads(
    system: &dyn ExecutionSystem,
    loads_seen: &mut u64,
    now: u64,
    observers: &mut [&mut (dyn SimObserver + '_)],
) {
    let (loads, _) = system.reconfiguration_stats();
    if loads > *loads_seen {
        emit(
            observers,
            SimEvent::LoadCompleted {
                completed: loads - *loads_seen,
                total: loads,
                now,
            },
        );
        *loads_seen = loads;
    }
}

/// Drains the backend's captured decisions and fabric journal (both
/// no-ops and allocation-free unless `SimConfig::explain` / `journal`
/// enabled them) and emits each item as a typed event. The buffers are
/// reused across calls so the hot path never allocates for disabled
/// telemetry.
fn poll_telemetry(
    system: &mut dyn ExecutionSystem,
    decisions: &mut Vec<DecisionExplain>,
    journal: &mut Vec<FabricJournalEntry>,
    observers: &mut [&mut (dyn SimObserver + '_)],
) {
    system.drain_decisions(decisions);
    for d in decisions.drain(..) {
        emit(observers, SimEvent::Decision(Box::new(d)));
    }
    system.drain_fabric_journal(journal);
    for entry in journal.drain(..) {
        emit(observers, SimEvent::ContainerTransition(entry));
    }
}

/// Checks the backend's self-healing counters and reports any advance as
/// typed fault events. Fault-free backends never advance a counter, so
/// this emits nothing and the event stream stays bit-identical to a run
/// without fault injection.
fn poll_recovery(
    system: &dyn ExecutionSystem,
    seen: &mut RecoveryStats,
    now: u64,
    observers: &mut [&mut (dyn SimObserver + '_)],
) {
    let cur = system.recovery_stats();
    if cur == *seen {
        return;
    }
    if cur.faults_injected > seen.faults_injected {
        emit(
            observers,
            SimEvent::FaultInjected {
                count: cur.faults_injected - seen.faults_injected,
                total: cur.faults_injected,
                cycles_lost: cur.fault_cycles_lost,
                now,
            },
        );
    }
    if cur.load_retries > seen.load_retries {
        emit(
            observers,
            SimEvent::LoadRetried {
                count: cur.load_retries - seen.load_retries,
                total: cur.load_retries,
                now,
            },
        );
    }
    if cur.containers_quarantined > seen.containers_quarantined {
        emit(
            observers,
            SimEvent::ContainerQuarantined {
                count: cur.containers_quarantined - seen.containers_quarantined,
                total: cur.containers_quarantined,
                now,
            },
        );
    }
    if cur.degraded_to_software > seen.degraded_to_software {
        emit(
            observers,
            SimEvent::DegradedToSoftware {
                count: cur.degraded_to_software - seen.degraded_to_software,
                total: cur.degraded_to_software,
                now,
            },
        );
    }
    *seen = cur;
}

/// Replays `trace` against an arbitrary [`ExecutionSystem`], emitting the
/// typed event stream to `observers`.
///
/// This is the open entry point of the engine: [`simulate`] builds one of
/// the built-in backends and attaches a [`RunStats`] observer, but any
/// third-party backend and any observer set can be driven through here.
/// Time starts at cycle 0 with a cold (empty) fabric, exactly like the
/// paper's measurements.
///
/// # Panics
///
/// Panics if the backend panics — the built-in backends panic when the
/// trace references SIs outside their library.
pub fn simulate_with(
    system: &mut dyn ExecutionSystem,
    trace: &Trace,
    observers: &mut [&mut (dyn SimObserver + '_)],
) {
    replay(system, trace, observers, None);
}

/// The body of [`simulate_with`], optionally cancellable (semantics in
/// [`simulate_observed_cancellable_shared`]). Returns `true` when the
/// trace ran to completion, `false` when the token cut it short.
fn replay(
    system: &mut dyn ExecutionSystem,
    trace: &Trace,
    observers: &mut [&mut (dyn SimObserver + '_)],
    token: Option<&CancelToken>,
) -> bool {
    let mut state = ReplayState::new(system, observers);
    state.cancel = token.cloned();
    let mut now = 0u64;
    for inv in trace.invocations() {
        now = replay_invocation(system, inv, now, &mut state, observers);
        if state.cancelled {
            break;
        }
    }
    finish_replay(system, now, now, &mut state, observers);
    !state.cancelled
}

/// Mutable bookkeeping of one trace replay, shared by [`simulate_with`]
/// and the multi-tenant engine ([`crate::simulate_multi`]): counter
/// snapshots, reusable buffers, the pre-resolved segment-observer set and
/// the once-per-replay poll gates. One instance per (system, observer set)
/// pair; carrying it across [`replay_invocation`] calls is what keeps the
/// single- and multi-tenant paths the same code.
pub(crate) struct ReplayState {
    loads_seen: u64,
    recovery_seen: RecoveryStats,
    // One segment buffer for the whole replay; refilled per burst.
    segments: Vec<BurstSegment>,
    // Telemetry drain buffers, reused for the whole replay; both stay
    // empty (and unallocated) while decision capture / the fabric journal
    // are disabled.
    decisions: Vec<DecisionExplain>,
    journal: Vec<FabricJournalEntry>,
    // Observers interested in the per-segment stream, resolved once —
    // the segment dispatch runs once per batch and per fallback segment,
    // the most frequent dispatch of a replay.
    seg_observers: Vec<usize>,
    // Poll gates, resolved once per replay: a backend that can never
    // produce recovery events (no fault model) or telemetry (capture off)
    // lets the loop skip those polls entirely — each skipped poll is
    // provably emission-free, because the counters it reads cannot
    // advance.
    recovery_active: bool,
    telemetry_active: bool,
    // Cooperative cancellation: `None` for classic runs (the boundary
    // checks reduce to one branch), `Some` when a run is given a token.
    // `cancelled` latches once the token is observed fired, so callers
    // distinguish complete from cut-short replays.
    cancel: Option<CancelToken>,
    pub(crate) cancelled: bool,
}

impl ReplayState {
    pub(crate) fn new(
        system: &dyn ExecutionSystem,
        observers: &[&mut (dyn SimObserver + '_)],
    ) -> Self {
        ReplayState {
            loads_seen: 0,
            recovery_seen: RecoveryStats::default(),
            segments: Vec::new(),
            decisions: Vec::new(),
            journal: Vec::new(),
            seg_observers: observers
                .iter()
                .enumerate()
                .filter(|(_, o)| o.wants_segments())
                .map(|(i, _)| i)
                .collect(),
            recovery_active: system.recovery_active(),
            telemetry_active: system.telemetry_active(),
            cancel: None,
            cancelled: false,
        }
    }

    /// Samples the token (if any) and latches the cancelled flag.
    fn poll_cancel(&mut self) -> bool {
        if !self.cancelled {
            if let Some(token) = &self.cancel {
                self.cancelled = token.is_cancelled();
            }
        }
        self.cancelled
    }
}

/// Replays one invocation starting at cycle `now` and returns the cycle it
/// finished at. Exactly one loop iteration of the classic [`simulate_with`]
/// body — the multi-tenant engine interleaves calls to this across tenants.
pub(crate) fn replay_invocation(
    system: &mut dyn ExecutionSystem,
    inv: &Invocation,
    start: u64,
    state: &mut ReplayState,
    observers: &mut [&mut (dyn SimObserver + '_)],
) -> u64 {
    let mut now = start;
    // Hot-spot-entry cancellation point: a job cancelled between
    // invocations stops before planning (and paying for) the next hot
    // spot.
    if state.poll_cancel() {
        return now;
    }
    emit(
        observers,
        SimEvent::HotSpotEntered {
            hot_spot: inv.hot_spot,
            now,
            origin: HotSpotOrigin::Annotated,
        },
    );
    system.enter_hot_spot(inv, now);
    if state.telemetry_active {
        poll_telemetry(system, &mut state.decisions, &mut state.journal, observers);
    }
    // The prologue advances the clock unconditionally, *before* the
    // burst loop: an invocation whose bursts are all empty (count 0)
    // must still cost its prologue, and `exit_hot_spot` below must see
    // the advanced time even when no segment ever updates `now`.
    now += inv.prologue_cycles;
    poll_loads(system, &mut state.loads_seen, now, observers);
    if state.recovery_active {
        poll_recovery(system, &mut state.recovery_seen, now, observers);
    }
    // Quietness is monotone within one burst loop: the system only
    // acquires new pending activity in `enter_hot_spot` (planning) or
    // while processing events it already had pending. So once the
    // pre-burst sample reads `false`, the remaining bursts of this
    // invocation skip the sample *and* the poll pair below.
    let mut watch = true;
    let bursts = inv.bursts.as_slice();
    let mut bi = 0;
    while bi < bursts.len() {
        // Burst-batch cancellation point: bounded latency of one batch
        // (or one burst on the fallback path). The hot spot is still
        // exited below so the backend stays coherent for diagnostics.
        if state.poll_cancel() {
            break;
        }
        if bursts[bi].count == 0 {
            bi += 1;
            continue;
        }
        // Sampled *before* the burst: a system that is quiet going in
        // cannot advance a counter during the burst. One sample also
        // covers a whole consumed batch: a batch is by contract
        // event-free, so activity cannot change inside it.
        watch = watch && system.has_pending_activity();
        // Fast path: let the backend advance a whole run of bursts in
        // one step. Consumed bursts process no events, so the polls
        // they would have made per-burst are skipped as provable
        // no-ops, and each non-empty one yields exactly one segment.
        let consumed = system.execute_bursts_batched(&bursts[bi..], now, &mut state.segments);
        if consumed > 0 {
            let batch = &bursts[bi..bi + consumed];
            for &i in &state.seg_observers {
                observers[i].on_batch(batch, &state.segments);
            }
            // Each consumed segment's start comes from the backend, not
            // from the previous segment, so the clock lands directly on
            // the end of the last consumed non-empty burst.
            if let Some(seg) = state.segments.last() {
                let b = batch
                    .iter()
                    .rfind(|b| b.count != 0)
                    .expect("a segment implies a non-empty consumed burst");
                let per = u64::from(seg.latency) + u64::from(b.overhead);
                now = seg.start + seg.count * per;
            }
            bi += consumed;
            continue;
        }
        // Per-burst fallback: an event falls inside (or before) this
        // burst, so the backend segments it and processes events.
        let b = &bursts[bi];
        system.execute_burst_into(b.si, b.count, b.overhead, now, &mut state.segments);
        for seg in &state.segments {
            let per = u64::from(seg.latency) + u64::from(b.overhead);
            let event = SimEvent::SegmentExecuted {
                si: b.si,
                segment: *seg,
                overhead: b.overhead,
            };
            for &i in &state.seg_observers {
                observers[i].on_event(&event);
            }
            now = seg.start + seg.count * per;
        }
        if watch {
            poll_loads(system, &mut state.loads_seen, now, observers);
            if state.recovery_active {
                poll_recovery(system, &mut state.recovery_seen, now, observers);
            }
            if state.telemetry_active {
                poll_telemetry(system, &mut state.decisions, &mut state.journal, observers);
            }
        }
        bi += 1;
    }
    system.exit_hot_spot(now);
    if state.recovery_active {
        poll_recovery(system, &mut state.recovery_seen, now, observers);
    }
    if state.telemetry_active {
        poll_telemetry(system, &mut state.decisions, &mut state.journal, observers);
    }
    now
}

/// The replay tail: final load/recovery polls at cycle `now` and the
/// [`SimEvent::RunFinished`] emission. `total_cycles` is reported in the
/// event — equal to `now` for a solo replay, the tenant's *consumed*
/// cycles in a multi-tenant one.
pub(crate) fn finish_replay(
    system: &mut dyn ExecutionSystem,
    now: u64,
    total_cycles: u64,
    state: &mut ReplayState,
    observers: &mut [&mut (dyn SimObserver + '_)],
) {
    let (loads, cycles) = system.reconfiguration_stats();
    if loads > state.loads_seen {
        emit(
            observers,
            SimEvent::LoadCompleted {
                completed: loads - state.loads_seen,
                total: loads,
                now,
            },
        );
        state.loads_seen = loads;
    }
    if state.recovery_active {
        poll_recovery(system, &mut state.recovery_seen, now, observers);
    }
    emit(
        observers,
        SimEvent::RunFinished {
            total_cycles,
            reconfigurations: loads,
            reconfiguration_cycles: cycles,
        },
    );
}

/// Replays `trace` on the configured built-in system with extra observers
/// attached alongside the [`RunStats`] collector.
///
/// Used by the CLI (`--log-events`) and the sweep progress reporting; with
/// an empty `extra` slice this is exactly [`simulate`].
///
/// # Panics
///
/// Panics if the trace references SIs outside `library`.
#[must_use]
pub fn simulate_observed(
    library: &SiLibrary,
    trace: &Trace,
    config: &SimConfig,
    extra: &mut [&mut (dyn SimObserver + '_)],
) -> RunStats {
    simulate_observed_planned(library, trace, config, None, extra).0
}

/// [`simulate_observed`] with an optional *shared* plan cache, returning
/// the run's deterministic [`PlanCacheStats`] alongside the statistics.
/// With `shared: None` and [`SimConfig::plan_cache`] on, the run uses a
/// private cache (intra-run memoisation only); when `plan_cache` is off
/// the returned counters are all zero. The [`RunStats`] are bit-identical
/// in every case.
///
/// # Panics
///
/// Panics if the trace references SIs outside `library`.
#[must_use]
pub fn simulate_observed_planned(
    library: &SiLibrary,
    trace: &Trace,
    config: &SimConfig,
    shared: Option<&PlanCacheHandle>,
    extra: &mut [&mut (dyn SimObserver + '_)],
) -> (RunStats, PlanCacheStats) {
    let (stats, plan, _) = simulate_builtin(library, trace, config, shared, None, extra);
    (stats, plan)
}

/// Replays `trace` on the configured system and returns the run statistics.
///
/// Delegates to [`simulate_with`] through the [`SimConfig::build_system`]
/// factory, so the enum-configured path and the trait path are the same
/// code and produce bit-identical results by construction.
///
/// # Panics
///
/// Panics if the trace references SIs outside `library`.
#[must_use]
pub fn simulate(library: &SiLibrary, trace: &Trace, config: &SimConfig) -> RunStats {
    simulate_observed(library, trace, config, &mut [])
}

/// [`simulate_observed_planned`] with cooperative cancellation — the
/// job-server execution path. The replay checks `token` at every hot-spot
/// entry and burst-batch boundary and stops early once it fires; the
/// observers then see a partial event stream, closed by a final
/// [`SimEvent::RunFinished`] at the cancellation cycle, and the returned
/// statistics cover the run up to that point. A run whose token never
/// fires returns statistics bit-identical to [`simulate_observed`]: the
/// only extra work is a relaxed atomic load per boundary.
///
/// # Panics
///
/// Panics if the trace references SIs outside `library`.
#[must_use]
pub fn simulate_observed_cancellable_shared(
    library: &SiLibrary,
    trace: &Trace,
    config: &SimConfig,
    token: &CancelToken,
    shared: Option<&PlanCacheHandle>,
    extra: &mut [&mut (dyn SimObserver + '_)],
) -> CancellableRun {
    let (stats, _, completed) =
        simulate_builtin(library, trace, config, shared, Some(token), extra);
    CancellableRun {
        stats,
        cancelled: !completed,
    }
}

/// [`simulate_observed_cancellable_shared`] with no extra observers.
///
/// # Panics
///
/// Panics if the trace references SIs outside `library`.
#[must_use]
pub fn simulate_cancellable_shared(
    library: &SiLibrary,
    trace: &Trace,
    config: &SimConfig,
    token: &CancelToken,
    shared: Option<&PlanCacheHandle>,
) -> CancellableRun {
    simulate_observed_cancellable_shared(library, trace, config, token, shared, &mut [])
}

/// One run of a built-in system, the body behind every entry point above:
/// builds the system from `config` (on the `shared` plan cache, if any),
/// puts the [`RunStats`] collector ahead of `extra`, hands every observer
/// the configured [`TraceContext`] and replays `trace`. Returns the
/// statistics, the run's plan-cache counters and whether the replay ran
/// to completion.
fn simulate_builtin(
    library: &SiLibrary,
    trace: &Trace,
    config: &SimConfig,
    shared: Option<&PlanCacheHandle>,
    token: Option<&CancelToken>,
    extra: &mut [&mut (dyn SimObserver + '_)],
) -> (RunStats, PlanCacheStats, bool) {
    let mut system = config.build_system_shared(library, shared);
    let mut stats = RunStats::new(
        system.label(),
        library.len(),
        config.bucket_cycles,
        config.detail,
    );
    let completed = {
        let mut observers: Vec<&mut (dyn SimObserver + '_)> = Vec::with_capacity(1 + extra.len());
        observers.push(&mut stats);
        for obs in extra.iter_mut() {
            observers.push(&mut **obs);
        }
        set_trace_context(&mut observers, config);
        replay(system.as_mut(), trace, &mut observers, token)
    };
    let plan = system.plan_cache_stats();
    (stats, plan, completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Burst, Invocation, Trace};
    use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibraryBuilder};
    use rispp_monitor::HotSpotId;

    fn library() -> SiLibrary {
        let universe = AtomUniverse::from_types([
            AtomTypeInfo::new("A1"),
            AtomTypeInfo::new("A2"),
        ])
        .unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("X", 1_000)
            .unwrap()
            .molecule(Molecule::from_counts([1, 0]), 100)
            .unwrap()
            .molecule(Molecule::from_counts([2, 1]), 30)
            .unwrap();
        b.special_instruction("Y", 800)
            .unwrap()
            .molecule(Molecule::from_counts([0, 1]), 90)
            .unwrap();
        b.build().unwrap()
    }

    fn trace(frames: usize) -> Trace {
        (0..frames)
            .map(|_| Invocation {
                hot_spot: HotSpotId(0),
                prologue_cycles: 1_000,
                bursts: vec![
                    Burst {
                        si: SiId(0),
                        count: 500,
                        overhead: 20,
                    },
                    Burst {
                        si: SiId(1),
                        count: 200,
                        overhead: 20,
                    },
                ],
                hints: vec![(SiId(0), 500), (SiId(1), 200)],
            })
            .collect()
    }

    #[test]
    fn software_only_time_is_exact() {
        let lib = library();
        let t = trace(2);
        let stats = simulate(&lib, &t, &SimConfig::software_only());
        // 2 × (1000 + 500·1020 + 200·820) cycles.
        assert_eq!(stats.total_cycles, 2 * (1_000 + 500 * 1_020 + 200 * 820));
        assert_eq!(stats.total_executions(), 1_400);
        assert!((stats.hardware_fraction() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn rispp_beats_software_and_molen_on_repetitive_workload() {
        let lib = library();
        let t = trace(8);
        let sw = simulate(&lib, &t, &SimConfig::software_only());
        let molen = simulate(&lib, &t, &SimConfig::molen(4));
        let hef = simulate(&lib, &t, &SimConfig::rispp(4, SchedulerKind::Hef));
        assert!(hef.total_cycles < sw.total_cycles);
        assert!(molen.total_cycles < sw.total_cycles);
        assert!(
            hef.total_cycles <= molen.total_cycles,
            "HEF {} vs Molen {}",
            hef.total_cycles,
            molen.total_cycles
        );
        assert!(hef.hardware_fraction() > 0.5);
    }

    #[test]
    fn all_schedulers_complete_with_identical_execution_counts() {
        let lib = library();
        let t = trace(3);
        let want = t.total_si_executions();
        for kind in SchedulerKind::ALL {
            let stats = simulate(&lib, &t, &SimConfig::rispp(3, kind));
            assert_eq!(stats.total_executions(), want, "{kind}");
            assert_eq!(stats.system, kind.abbreviation());
        }
    }

    #[test]
    fn detail_mode_collects_buckets_and_timeline() {
        let lib = library();
        let t = trace(2);
        let stats = simulate(
            &lib,
            &t,
            &SimConfig::rispp(4, SchedulerKind::Hef).with_detail(true),
        );
        assert!(stats.has_detail());
        let combined: u64 = stats.combined_buckets().iter().map(|&c| u64::from(c)).sum();
        assert_eq!(combined, stats.total_executions());
        // Latency of X must step down over time.
        let tl = &stats.latency_timeline[0];
        assert!(tl.len() >= 2);
        assert!(tl.windows(2).all(|w| w[1].latency < w[0].latency));
    }

    #[test]
    fn one_chip_is_never_faster_than_molen() {
        let lib = library();
        let t = trace(6);
        let molen = simulate(&lib, &t, &SimConfig::molen(4));
        let one_chip = simulate(
            &lib,
            &t,
            &SimConfig {
                system: SystemKind::OneChip,
                ..SimConfig::molen(4)
            },
        );
        assert!(one_chip.total_cycles >= molen.total_cycles);
        assert_eq!(one_chip.system, "OneChip");
    }

    #[test]
    fn reconfiguration_stats_reported() {
        let lib = library();
        let t = trace(2);
        let stats = simulate(&lib, &t, &SimConfig::rispp(4, SchedulerKind::Hef));
        assert!(stats.reconfigurations > 0);
        assert!(stats.reconfiguration_cycles > 0);
        let sw = simulate(&lib, &t, &SimConfig::software_only());
        assert_eq!(sw.reconfigurations, 0);
    }

    #[test]
    fn more_containers_never_hurt_hef_on_stable_workload() {
        let lib = library();
        let t = trace(6);
        let c3 = simulate(&lib, &t, &SimConfig::rispp(3, SchedulerKind::Hef));
        let c4 = simulate(&lib, &t, &SimConfig::rispp(4, SchedulerKind::Hef));
        assert!(c4.total_cycles <= c3.total_cycles);
    }

    #[test]
    fn system_kind_labels_are_static_and_stable() {
        assert_eq!(SystemKind::Rispp(SchedulerKind::Hef).label(), "HEF");
        assert_eq!(SystemKind::Molen.label(), "Molen");
        assert_eq!(SystemKind::OneChip.label(), "OneChip");
        assert_eq!(SystemKind::SoftwareOnly.label(), "Software");
    }

    #[test]
    fn prologue_cycles_count_even_without_bursts() {
        let lib = library();
        // Three invocations: a normal one, one with only zero-count bursts,
        // one with no bursts at all.
        let t = Trace::from_invocations(vec![
            Invocation {
                hot_spot: HotSpotId(0),
                prologue_cycles: 700,
                bursts: vec![Burst {
                    si: SiId(0),
                    count: 0,
                    overhead: 20,
                }],
                hints: vec![(SiId(0), 0)],
            },
            Invocation {
                hot_spot: HotSpotId(0),
                prologue_cycles: 300,
                bursts: Vec::new(),
                hints: Vec::new(),
            },
        ]);
        for config in [
            SimConfig::software_only(),
            SimConfig::molen(4),
            SimConfig {
                system: SystemKind::OneChip,
                ..SimConfig::molen(4)
            },
            SimConfig::rispp(4, SchedulerKind::Hef),
        ] {
            let stats = simulate(&lib, &t, &config);
            assert_eq!(
                stats.total_cycles, 1_000,
                "{}: prologue must advance time without bursts",
                config.system.label()
            );
            assert_eq!(stats.total_executions(), 0, "{}", config.system.label());
        }
    }

    #[test]
    fn unfired_token_is_bit_identical_to_plain_simulate() {
        let lib = library();
        let t = trace(6);
        for config in [
            SimConfig::software_only(),
            SimConfig::molen(4),
            SimConfig::rispp(4, SchedulerKind::Hef).with_detail(true),
            SimConfig::rispp(3, SchedulerKind::Asf),
        ] {
            let plain = simulate(&lib, &t, &config);
            let run = simulate_cancellable_shared(&lib, &t, &config, &CancelToken::new(), None);
            assert!(!run.cancelled, "{}", config.system.label());
            assert_eq!(run.stats, plain, "{}", config.system.label());
        }
    }

    #[test]
    fn prefired_token_stops_before_any_execution() {
        let lib = library();
        let t = trace(6);
        let token = CancelToken::new();
        token.cancel();
        let run = simulate_cancellable_shared(
            &lib,
            &t,
            &SimConfig::rispp(4, SchedulerKind::Hef),
            &token,
            None,
        );
        assert!(run.cancelled);
        assert_eq!(run.stats.total_executions(), 0);
        assert_eq!(run.stats.total_cycles, 0);
    }

    #[test]
    fn mid_run_cancellation_yields_partial_stats() {
        let lib = library();
        let t = trace(64);
        let full = simulate(&lib, &t, &SimConfig::rispp(4, SchedulerKind::Hef));

        // Fire the token from an observer once some executions happened:
        // the replay must stop at the next boundary, well short of the
        // full trace.
        struct FireAfter {
            token: CancelToken,
            segments: u32,
        }
        impl SimObserver for FireAfter {
            fn on_event(&mut self, event: &SimEvent) {
                if matches!(event, SimEvent::SegmentExecuted { .. }) {
                    self.segments += 1;
                    if self.segments == 3 {
                        self.token.cancel();
                    }
                }
            }
        }
        let token = CancelToken::new();
        let mut fire = FireAfter {
            token: token.clone(),
            segments: 0,
        };
        let mut extra: [&mut dyn SimObserver; 1] = [&mut fire];
        let run = simulate_observed_cancellable_shared(
            &lib,
            &t,
            &SimConfig::rispp(4, SchedulerKind::Hef),
            &token,
            None,
            &mut extra,
        );
        assert!(run.cancelled);
        assert!(run.stats.total_executions() > 0);
        assert!(run.stats.total_executions() < full.total_executions());
        assert!(run.stats.total_cycles < full.total_cycles);
    }

    #[test]
    fn empty_trace_finishes_at_cycle_zero() {
        let lib = library();
        let t = Trace::from_invocations(Vec::new());
        for config in [
            SimConfig::software_only(),
            SimConfig::rispp(2, SchedulerKind::Asf),
        ] {
            let stats = simulate(&lib, &t, &config);
            assert_eq!(stats.total_cycles, 0);
            assert_eq!(stats.total_executions(), 0);
            assert_eq!(stats.reconfigurations, 0);
        }
    }
}
