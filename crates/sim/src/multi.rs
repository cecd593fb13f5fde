//! Multi-application simulation: K traces, one per tenant.
//!
//! [`simulate_multi`] replays one trace per tenant under the config's
//! [`TenancyConfig`]:
//!
//! * RISPP under [`TenantPolicy::Shared`] — one [`FabricArbiter`], one
//!   serialized clock. Tenants alternate on the substrate at invocation
//!   granularity under a [`TenantArbitration`]; atoms loaded by one
//!   accelerate another ([`SimEvent::AtomShared`]) and evictions of a
//!   co-tenant's atoms are counted as contested
//!   ([`SimEvent::EvictionContested`]). Each tenant reports the scheduler
//!   label suffixed with `[tN]` and receives a [`SimEvent::TenantSwitched`]
//!   at the start of each of its slices.
//! * Everything else replays each tenant solo with [`crate::simulate`]'s
//!   machinery: under [`TenantPolicy::Partitioned`] on `containers / K`
//!   containers (a static split arbitrates nothing, so each tenant *is* a
//!   solo run on its partition), and for the non-RISPP [`SystemKind`]s
//!   under `Shared` on the full pool (an idealized duplicated substrate).
//!   Solo tenants report the solo label and no tenant events.
//!
//! A 1-tenant shared run is bit-identical to [`crate::simulate`]: the
//! arbiter is built by the same function and driven through the same
//! [`RisppBackend`] adapter and the same replay loop; only the adapter
//! borrows the arbiter for one invocation slice at a time instead of
//! owning it.
//!
//! [`FabricArbiter`]: rispp_core::FabricArbiter

use rispp_core::SchedulerKind;
use rispp_model::SiLibrary;

use crate::backend::{ExecutionSystem, RisppBackend};
use crate::engine::{
    emit, finish_replay, replay_invocation, set_trace_context, simulate_observed, ReplayState,
    SimConfig, SystemKind,
};
use crate::observer::{SimEvent, SimObserver};
use crate::stats::RunStats;
use crate::trace::Trace;

/// How the substrate is shared between the applications of a
/// multi-tenant run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TenantPolicy {
    /// Full sharing with owner tags, cross-app atom reuse and
    /// contention-aware scheduling.
    #[default]
    Shared,
    /// Static split: each tenant replays solo on `containers / K`
    /// containers, perfectly cycle-isolated.
    Partitioned,
}

/// How the multi-tenant engine picks the next tenant to run an
/// invocation. Only shared RISPP runs interleave tenants; every other run
/// replays each tenant solo, so the arbitration cannot change its results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TenantArbitration {
    /// Strict rotation over the tenants that still have invocations left.
    #[default]
    RoundRobin,
    /// Always run the tenant with the fewest consumed cycles so far
    /// (lowest index on ties) — keeps the tenants' own clocks as close
    /// together as invocation granularity allows.
    CycleInterleaved,
}

/// Multi-application tenancy parameters of a [`SimConfig`].
///
/// `count` is advisory — [`simulate_multi`] derives the tenant count from
/// the number of traces it is given; the field exists so sweeps can carry
/// the intended K in the `Copy` config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenancyConfig {
    /// Intended number of tenants (1 = classic single-owner simulation).
    pub count: u16,
    /// How the substrate is shared.
    pub policy: TenantPolicy,
    /// How tenants are interleaved.
    pub arbitration: TenantArbitration,
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            count: 1,
            policy: TenantPolicy::Shared,
            arbitration: TenantArbitration::RoundRobin,
        }
    }
}

/// Aggregated results of one multi-tenant run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRunStats {
    /// Per-tenant statistics, indexed by tenant.
    pub per_tenant: Vec<RunStats>,
    /// Total cycles *consumed* across tenants (Σ of each tenant's share of
    /// the serialized clock on a shared RISPP fabric; Σ of the solo runs'
    /// cycles otherwise). The throughput metric: lower is better for a
    /// fixed workload.
    pub aggregate_cycles: u64,
    /// Wall-clock span of the run: the final serialized clock on a shared
    /// RISPP fabric, the slowest solo run otherwise.
    pub makespan_cycles: u64,
    /// Foreign atoms found already loaded by co-tenants across all plans
    /// (cross-app reuse; zero outside shared RISPP multi-tenancy).
    pub atoms_shared: u64,
    /// Loads that evicted an atom owned by a different application (zero
    /// outside shared RISPP multi-tenancy).
    pub evictions_contested: u64,
}

/// Containers each tenant gets under a partitioned split of `total`.
fn partition_size(total: u16, tenants: usize) -> u16 {
    let k = u16::try_from(tenants.max(1)).expect("tenant count fits u16");
    total / k
}

/// Picks the next tenant with invocations left, or `None` when all traces
/// are drained.
fn pick_next(
    arbitration: TenantArbitration,
    prev: Option<usize>,
    next_inv: &[usize],
    traces: &[Trace],
    consumed: &[u64],
) -> Option<usize> {
    let k = traces.len();
    let remaining = |i: usize| next_inv[i] < traces[i].invocations().len();
    match arbitration {
        TenantArbitration::RoundRobin => {
            let first = prev.map_or(0, |p| (p + 1) % k);
            (0..k).map(|off| (first + off) % k).find(|&i| remaining(i))
        }
        TenantArbitration::CycleInterleaved => {
            (0..k).filter(|&i| remaining(i)).min_by_key(|&i| (consumed[i], i))
        }
    }
}

/// Replays one trace per tenant on the configured system under the
/// config's [`TenancyConfig`], returning per-tenant and aggregate
/// statistics. See [`simulate_multi_observed`] for extra observers.
///
/// # Panics
///
/// Panics if a trace references SIs outside `library`.
#[must_use]
pub fn simulate_multi(library: &SiLibrary, traces: &[Trace], config: &SimConfig) -> MultiRunStats {
    simulate_multi_observed(library, traces, config, &mut [])
}

/// [`simulate_multi`] with extra observers: `extra` is either empty or
/// holds exactly one observer per trace, attached to that tenant's event
/// stream alongside its [`RunStats`] collector.
///
/// On a shared RISPP fabric, tenant event streams are interleaved at
/// invocation granularity and the switched-to tenant receives a
/// [`SimEvent::TenantSwitched`] at the start of each of its slices (only
/// when more than one tenant runs). Every other tenant's stream is that of
/// its solo run.
///
/// # Panics
///
/// Panics if `extra` is non-empty with a length different from `traces`,
/// or if a trace references SIs outside `library`.
#[must_use]
pub fn simulate_multi_observed(
    library: &SiLibrary,
    traces: &[Trace],
    config: &SimConfig,
    extra: &mut [&mut (dyn SimObserver + '_)],
) -> MultiRunStats {
    assert!(
        extra.is_empty() || extra.len() == traces.len(),
        "extra observers must be empty or one per trace"
    );
    let k = traces.len();
    if k == 0 {
        return MultiRunStats {
            per_tenant: Vec::new(),
            aggregate_cycles: 0,
            makespan_cycles: 0,
            atoms_shared: 0,
            evictions_contested: 0,
        };
    }
    match (config.system, config.tenants.policy) {
        (SystemKind::Rispp(kind), TenantPolicy::Shared) => {
            simulate_multi_shared(library, traces, config, kind, extra)
        }
        _ => simulate_multi_independent(library, traces, config, extra),
    }
}

/// Tenant `i`'s observer set: its [`RunStats`] collector, then its extra
/// observer if one was given.
fn tenant_observers<'o, 'd>(
    stats: &'o mut RunStats,
    extra: &'o mut [&mut (dyn SimObserver + 'd)],
    i: usize,
) -> Vec<&'o mut (dyn SimObserver + 'd)> {
    let mut obs: Vec<&'o mut (dyn SimObserver + 'd)> = Vec::with_capacity(2);
    obs.push(stats);
    if let Some(o) = extra.get_mut(i) {
        obs.push(&mut **o);
    }
    obs
}

/// The arbitrated RISPP path: one
/// [`FabricArbiter`](rispp_core::FabricArbiter) on one serialized clock,
/// lent to one tenant's [`RisppBackend`] per invocation slice.
fn simulate_multi_shared(
    library: &SiLibrary,
    traces: &[Trace],
    config: &SimConfig,
    kind: SchedulerKind,
    extra: &mut [&mut (dyn SimObserver + '_)],
) -> MultiRunStats {
    let k = traces.len();
    let tenants = u16::try_from(k).expect("tenant count fits u16");
    // One private plan cache per multi-tenant run: the application index
    // and tenant count are plan-key words, so K tenants share the cache
    // without ever sharing a decision across apps.
    let mut arbiter = config.build_arbiter(library, kind, tenants, None);
    let oracle = config.oracle;

    let mut stats: Vec<RunStats> = (0..tenants)
        .map(|app| {
            let label = RisppBackend::new(&mut arbiter, app).label();
            RunStats::new(label, library.len(), config.bucket_cycles, config.detail)
        })
        .collect();
    let mut states: Vec<ReplayState> = Vec::with_capacity(k);
    for app in 0..tenants {
        let i = usize::from(app);
        let mut obs = tenant_observers(&mut stats[i], extra, i);
        set_trace_context(&mut obs, config);
        let system = RisppBackend::new(&mut arbiter, app).with_oracle(oracle);
        states.push(ReplayState::new(&system, &obs));
    }

    let mut now = 0u64;
    let mut consumed = vec![0u64; k];
    let mut next_inv = vec![0usize; k];
    let mut prev: Option<usize> = None;
    // Contention counters already surfaced as events: per-tenant reuse
    // totals, and the substrate-global contested counter with its
    // per-tenant attribution (each delta goes to the tenant whose slice
    // uncovered it).
    let mut shared_seen = vec![0u64; k];
    let mut contested_seen = 0u64;
    let mut contested_totals = vec![0u64; k];

    while let Some(i) = pick_next(config.tenants.arbitration, prev, &next_inv, traces, &consumed) {
        let app = u16::try_from(i).expect("tenant index fits u16");
        let inv = &traces[i].invocations()[next_inv[i]];
        let start = now;
        {
            let mut obs = tenant_observers(&mut stats[i], extra, i);
            if k > 1 && prev != Some(i) {
                emit(
                    &mut obs,
                    SimEvent::TenantSwitched {
                        tenant: app,
                        now: start,
                    },
                );
            }
            let mut system = RisppBackend::new(&mut arbiter, app).with_oracle(oracle);
            now = replay_invocation(&mut system, inv, start, &mut states[i], &mut obs);
            let contested = arbiter.contested_evictions();
            if contested > contested_seen {
                let delta = contested - contested_seen;
                contested_seen = contested;
                contested_totals[i] += delta;
                emit(
                    &mut obs,
                    SimEvent::EvictionContested {
                        tenant: app,
                        count: delta,
                        total: contested_totals[i],
                        now,
                    },
                );
            }
        }
        consumed[i] += now - start;
        // Cross-app reuse can advance for *any* tenant during this slice
        // (a fault-triggered re-plan replans co-tenants too), so poll all
        // of them.
        for other in 0..tenants {
            let j = usize::from(other);
            let cur = arbiter.atoms_shared(other);
            if cur > shared_seen[j] {
                let mut obs = tenant_observers(&mut stats[j], extra, j);
                emit(
                    &mut obs,
                    SimEvent::AtomShared {
                        tenant: other,
                        count: cur - shared_seen[j],
                        total: cur,
                        now,
                    },
                );
                shared_seen[j] = cur;
            }
        }
        next_inv[i] += 1;
        prev = Some(i);
    }

    for app in 0..tenants {
        let i = usize::from(app);
        let mut obs = tenant_observers(&mut stats[i], extra, i);
        let mut system = RisppBackend::new(&mut arbiter, app).with_oracle(oracle);
        finish_replay(&mut system, now, consumed[i], &mut states[i], &mut obs);
    }

    MultiRunStats {
        aggregate_cycles: consumed.iter().sum(),
        makespan_cycles: now,
        atoms_shared: shared_seen.iter().sum(),
        evictions_contested: contested_seen,
        per_tenant: stats,
    }
}

/// The unarbitrated path: every tenant replays solo on its own system (its
/// partition's size under `Partitioned`; the full — idealized, duplicated
/// — pool for a baseline under `Shared`).
fn simulate_multi_independent(
    library: &SiLibrary,
    traces: &[Trace],
    config: &SimConfig,
    extra: &mut [&mut (dyn SimObserver + '_)],
) -> MultiRunStats {
    let k = traces.len();
    let containers = match config.tenants.policy {
        TenantPolicy::Shared => config.containers,
        TenantPolicy::Partitioned => partition_size(config.containers, k),
    };
    let solo = SimConfig {
        containers,
        tenants: TenancyConfig::default(),
        ..*config
    };
    let mut per_tenant = Vec::with_capacity(k);
    for (i, trace) in traces.iter().enumerate() {
        let stats = if extra.is_empty() {
            simulate_observed(library, trace, &solo, &mut [])
        } else {
            simulate_observed(library, trace, &solo, &mut [&mut *extra[i]])
        };
        per_tenant.push(stats);
    }
    MultiRunStats {
        aggregate_cycles: per_tenant.iter().map(|s| s.total_cycles).sum(),
        makespan_cycles: per_tenant.iter().map(|s| s.total_cycles).max().unwrap_or(0),
        atoms_shared: 0,
        evictions_contested: 0,
        per_tenant,
    }
}
