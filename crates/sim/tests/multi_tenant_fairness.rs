//! Fairness and isolation properties of the multi-tenant arbiter:
//!
//! * Under [`TenantPolicy::Shared`] with adversarial per-app demand,
//!   every tenant makes forward progress — it completes its whole trace
//!   and never runs slower than its cISA software floor (the trap-based
//!   baseline the run-time system guarantees per Special Instruction).
//! * Under [`TenantPolicy::Partitioned`], tenants are solo runs: each
//!   tenant's `RunStats`, label included, and its event stream are
//!   bit-identical to a solo run on its `containers / K` partition with the
//!   same fault seed, so one app's demand (or faults) can never change
//!   another app's results.

use proptest::prelude::*;
use rispp_core::SchedulerKind;
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_sim::{
    simulate, simulate_multi, simulate_multi_observed, simulate_observed, Burst, FaultConfig,
    Invocation, SimConfig, SimObserver, TenancyConfig, TenantArbitration, TenantPolicy, Trace,
    TraceLogObserver,
};

fn library() -> SiLibrary {
    let universe = AtomUniverse::from_types([
        AtomTypeInfo::new("A1"),
        AtomTypeInfo::new("A2"),
        AtomTypeInfo::new("A3"),
    ])
    .unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 1_200)
        .unwrap()
        .molecule(Molecule::from_counts([1, 0, 0]), 150)
        .unwrap()
        .molecule(Molecule::from_counts([2, 1, 0]), 40)
        .unwrap();
    b.special_instruction("Y", 900)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1, 1]), 80)
        .unwrap();
    b.special_instruction("Z", 600)
        .unwrap()
        .molecule(Molecule::from_counts([0, 0, 2]), 70)
        .unwrap();
    b.build().unwrap()
}

/// A tenant workload scaled by `scale`: larger scales model an app that
/// hogs the fabric with much heavier SI demand per invocation.
fn tenant_trace(frames: usize, scale: u32) -> Trace {
    (0..frames)
        .map(|f| Invocation {
            hot_spot: HotSpotId((f % 2) as u16),
            prologue_cycles: 500,
            bursts: vec![
                Burst {
                    si: SiId(0),
                    count: 30 * scale,
                    overhead: 15,
                },
                Burst {
                    si: SiId(1),
                    count: 12 * scale,
                    overhead: 15,
                },
                Burst {
                    si: SiId(2),
                    count: 6 * scale,
                    overhead: 15,
                },
            ],
            hints: vec![
                (SiId(0), u64::from(30 * scale)),
                (SiId(1), u64::from(12 * scale)),
                (SiId(2), u64::from(6 * scale)),
            ],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shared fabric, adversarial demand: one tenant's workload is 10×
    /// every other's, yet every tenant finishes its full trace and stays
    /// at or under its software-only floor (no starvation — the cISA
    /// trap path bounds every tenant's slice time regardless of who owns
    /// the containers).
    #[test]
    fn shared_fabric_never_starves_a_tenant(
        scales in proptest::collection::vec(1u32..=12, 2..5),
        frames in 1usize..=3,
        heavy_pick in 0usize..4,
        scheduler_pick in 0usize..4,
        cycle_interleaved in any::<bool>(),
    ) {
        let lib = library();
        let heavy = heavy_pick % scales.len();
        let traces: Vec<Trace> = scales
            .iter()
            .enumerate()
            .map(|(i, &s)| tenant_trace(frames, if i == heavy { s * 10 } else { s }))
            .collect();
        let arbitration = if cycle_interleaved {
            TenantArbitration::CycleInterleaved
        } else {
            TenantArbitration::RoundRobin
        };
        let scheduler = SchedulerKind::ALL[scheduler_pick % SchedulerKind::ALL.len()];
        let config = SimConfig::rispp(6, scheduler).with_tenants(TenancyConfig {
            count: traces.len() as u16,
            policy: TenantPolicy::Shared,
            arbitration,
        });
        let multi = simulate_multi(&lib, &traces, &config);
        prop_assert_eq!(multi.per_tenant.len(), traces.len());
        let software = SimConfig::software_only();
        for (i, t) in traces.iter().enumerate() {
            prop_assert_eq!(
                multi.per_tenant[i].total_executions(),
                t.total_si_executions(),
                "tenant {} did not complete its trace",
                i
            );
            let floor = simulate(&lib, t, &software);
            prop_assert!(
                multi.per_tenant[i].total_cycles <= floor.total_cycles,
                "tenant {} ran {} cycles, above its {}-cycle software floor",
                i,
                multi.per_tenant[i].total_cycles,
                floor.total_cycles
            );
        }
    }

    /// Partitioned fabric: every tenant's stats and event stream —
    /// including under fault injection — are bit-identical to a solo run
    /// on `containers / K` containers with the same fault seed, label
    /// included and with no tenant events. Co-tenant demand and co-tenant
    /// faults are invisible, and no cross-app sharing or contested
    /// evictions can occur.
    #[test]
    fn partitioned_tenants_are_cycle_isolated(
        scales in proptest::collection::vec(1u32..=8, 2..4),
        rate_ppm in 0u32..150_000,
        seed in any::<u64>(),
        scheduler_pick in 0usize..4,
    ) {
        let lib = library();
        let k = scales.len();
        let traces: Vec<Trace> = scales.iter().map(|&s| tenant_trace(2, s)).collect();
        let fault = FaultConfig { rate_ppm, seed, max_retries: 3 };
        let scheduler = SchedulerKind::ALL[scheduler_pick % SchedulerKind::ALL.len()];
        let containers = 6u16;
        let config = SimConfig::rispp(containers, scheduler)
            .with_fault(fault)
            .with_tenants(TenancyConfig {
                count: k as u16,
                policy: TenantPolicy::Partitioned,
                arbitration: TenantArbitration::RoundRobin,
            });
        let mut logs: Vec<TraceLogObserver> =
            traces.iter().map(|_| TraceLogObserver::new()).collect();
        let multi = {
            let mut extra: Vec<&mut dyn SimObserver> =
                logs.iter_mut().map(|log| log as &mut dyn SimObserver).collect();
            simulate_multi_observed(&lib, &traces, &config, &mut extra)
        };
        let solo_cfg = SimConfig::rispp(containers / k as u16, scheduler).with_fault(fault);
        for (i, t) in traces.iter().enumerate() {
            let mut solo_log = TraceLogObserver::new();
            let solo = simulate_observed(&lib, t, &solo_cfg, &mut [&mut solo_log]);
            prop_assert_eq!(
                &multi.per_tenant[i],
                &solo,
                "tenant {} is not isolated from its co-tenants",
                i
            );
            prop_assert_eq!(
                logs[i].events(),
                solo_log.events(),
                "tenant {}'s event stream is not its solo run's",
                i
            );
        }
        prop_assert_eq!(multi.atoms_shared, 0);
        prop_assert_eq!(multi.evictions_contested, 0);
    }
}

/// The tenancy config's `count` is the tenant count: a trace list of
/// another length is refused, naming both, instead of silently running
/// as many tenants as there are traces.
#[test]
#[should_panic(expected = "2 traces for a config of 3 tenants")]
fn a_trace_count_other_than_the_tenant_count_is_refused() {
    let traces = [tenant_trace(1, 1), tenant_trace(1, 2)];
    let config = SimConfig::rispp(6, SchedulerKind::Hef).with_tenants(TenancyConfig {
        count: 3,
        policy: TenantPolicy::Shared,
        arbitration: TenantArbitration::RoundRobin,
    });
    let _ = simulate_multi(&library(), &traces, &config);
}
