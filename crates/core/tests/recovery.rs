//! Self-healing behaviour of the Run-Time Manager under injected faults:
//! bounded retry with backoff, scrub-and-reload, quarantine + re-planning,
//! and the hard forward-progress guarantee via the cISA software trap.

use rispp_core::{FabricArbiter, SchedulerKind};
use rispp_fabric::fault::PPM;
use rispp_fabric::FaultModel;
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;

fn library() -> SiLibrary {
    let universe =
        AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")]).unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("FAST", 1_000)
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
fn null_fault_model_is_bit_identical_to_no_model() {
    let lib = library();
    let mut plain = FabricArbiter::builder(&lib).containers(4).build();
    let mut nulled = FabricArbiter::builder(&lib)
        .containers(4)
        .fault_model(FaultModel::uniform(0.0, 1234))
        .build();
    for mgr in [&mut plain, &mut nulled] {
        mgr.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 400)], 0)
            .unwrap();
    }
    let mut a = Vec::new();
    plain.execute_burst_into(0, SiId(0), 400, 25, 0, &mut a);
    let mut b = Vec::new();
    nulled.execute_burst_into(0, SiId(0), 400, 25, 0, &mut b);
    assert_eq!(a, b, "a null model must not perturb execution");
    assert_eq!(plain.fabric().stats(), nulled.fabric().stats());
    assert_eq!(
        nulled.recovery_stats(0),
        rispp_core::RecoveryStats::default(),
        "no faults can be injected at rate zero"
    );
}

#[test]
fn certain_crc_aborts_exhaust_retries_quarantine_and_degrade() {
    let lib = library();
    // Every load aborts: retries back off, then every container is
    // quarantined, then the hot spot re-plans to pure software.
    let model = FaultModel {
        seed: 5,
        crc_abort_ppm: PPM,
        ..FaultModel::default()
    };
    let mut mgr = FabricArbiter::builder(&lib)
        .containers(3)
        .fault_model(model)
        .max_retries(2)
        .build();
    mgr.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 400)], 0)
        .unwrap();
    let mut segments = Vec::new();
    mgr.execute_burst_into(0, SiId(0), 400, 25, 0, &mut segments);

    // Forward progress: every execution happened, all in software.
    let executed: u64 = segments.iter().map(|s| s.count).sum();
    assert_eq!(executed, 400);
    assert!(
        segments.iter().all(|s| !s.is_hardware()),
        "no load can ever complete, so everything traps to cISA"
    );

    let stats = mgr.recovery_stats(0);
    assert!(stats.faults_injected > 0);
    assert!(
        stats.load_retries > 0,
        "aborts must be retried before giving up"
    );
    assert!(stats.fault_cycles_lost > 0);
    // Let the retry/quarantine cascade play out fully.
    mgr.exit_hot_spot(0, 200_000_000);
    mgr.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 400)], 200_000_001)
        .unwrap();
    mgr.advance_to(400_000_000);
    let stats = mgr.recovery_stats(0);
    assert_eq!(
        stats.containers_quarantined, 3,
        "every tile eventually exhausts its retries: {stats:?}"
    );
    assert!(
        stats.degraded_to_software > 0,
        "re-planning on a dead fabric must record the cISA degradation: {stats:?}"
    );
    assert_eq!(mgr.fabric().usable_container_count(), 0);
    // Still executing fine, purely in software.
    let e = mgr.execute_si(0, SiId(0), 400_000_001);
    assert_eq!(e.latency, 1_000);
    assert!(!e.is_hardware());
}

#[test]
fn seu_corruption_is_scrubbed_and_hardware_returns() {
    let lib = library();
    // Aggressive SEU rate (mean lifetime 1e9/20_000 = 50K cycles), no other
    // faults: atoms keep getting corrupted and scrub-reloaded.
    let model = FaultModel {
        seed: 6,
        seu_per_gcycle: 20_000,
        ..FaultModel::default()
    };
    let mut mgr = FabricArbiter::builder(&lib)
        .containers(4)
        .fault_model(model)
        .build();
    mgr.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 2_000)], 0)
        .unwrap();
    let mut segments = Vec::new();
    mgr.execute_burst_into(0, SiId(0), 2_000, 25, 0, &mut segments);
    let executed: u64 = segments.iter().map(|s| s.count).sum();
    assert_eq!(executed, 2_000, "forward progress under SEU churn");
    assert!(
        segments.iter().any(rispp_core::BurstSegment::is_hardware),
        "scrub-and-reload must keep bringing hardware back"
    );
    let stats = mgr.recovery_stats(0);
    assert!(stats.faults_injected > 0, "SEUs must have fired: {stats:?}");
    assert!(
        stats.load_retries > 0,
        "every corruption triggers a scrub reload: {stats:?}"
    );
    assert_eq!(stats.containers_quarantined, 0);
}

#[test]
fn permanent_failures_replan_on_the_shrunken_fabric() {
    let lib = library();
    // Half the tiles die early (seeded): the manager must re-select
    // Molecules against the reduced container count and keep executing.
    let model = FaultModel {
        seed: 7,
        permanent_failure_ppm: PPM / 2,
        permanent_failure_horizon: 2_000_000,
        ..FaultModel::default()
    };
    let mut mgr = FabricArbiter::builder(&lib)
        .containers(6)
        .fault_model(model)
        .build();
    mgr.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 5_000)], 0)
        .unwrap();
    let mut segments = Vec::new();
    mgr.execute_burst_into(0, SiId(0), 5_000, 25, 0, &mut segments);
    let executed: u64 = segments.iter().map(|s| s.count).sum();
    assert_eq!(executed, 5_000);
    let stats = mgr.recovery_stats(0);
    assert!(
        stats.containers_quarantined > 0,
        "the seeded schedule must kill at least one tile: {stats:?}"
    );
    assert!(mgr.fabric().usable_container_count() < 6);
    // The re-plan happened against the shrunken fabric; the supremum of
    // the current selection must fit in what is left.
    let total: u32 = mgr
        .selected(0)
        .iter()
        .map(|s| {
            lib.si(s.si).unwrap().variants()[s.variant_index]
                .atoms
                .total_atoms()
        })
        .sum();
    assert!(total <= u32::from(mgr.fabric().usable_container_count()));
}

#[test]
fn forward_progress_under_heavy_faults_for_every_scheduler() {
    let lib = library();
    for kind in SchedulerKind::ALL {
        let mut mgr = FabricArbiter::builder(&lib)
            .containers(4)
            .scheduler(kind)
            .fault_model(FaultModel::uniform(0.25, 42))
            .build();
        let mut now = 0u64;
        for frame in 0..6u16 {
            mgr.enter_hot_spot(
                0,
                HotSpotId(frame % 2),
                &[(SiId(0), 300), (SiId(1), 80)],
                now,
            )
            .unwrap();
            for (si, count) in [(SiId(0), 300u32), (SiId(1), 80)] {
                let mut segments = Vec::new();
                mgr.execute_burst_into(0, si, count, 20, now, &mut segments);
                let executed: u64 = segments.iter().map(|s| s.count).sum();
                assert_eq!(executed, u64::from(count), "{kind}: dropped executions");
                let last = segments.last().unwrap();
                now = last.start + last.count * (u64::from(last.latency) + 20);
            }
            mgr.exit_hot_spot(0, now);
        }
        // Determinism: a second identical run reproduces the stats exactly.
        let mut again = FabricArbiter::builder(&lib)
            .containers(4)
            .scheduler(kind)
            .fault_model(FaultModel::uniform(0.25, 42))
            .build();
        let mut now2 = 0u64;
        for frame in 0..6u16 {
            again
                .enter_hot_spot(
                    0,
                    HotSpotId(frame % 2),
                    &[(SiId(0), 300), (SiId(1), 80)],
                    now2,
                )
                .unwrap();
            for (si, count) in [(SiId(0), 300u32), (SiId(1), 80)] {
                let mut segments = Vec::new();
                again.execute_burst_into(0, si, count, 20, now2, &mut segments);
                let last = segments.last().unwrap();
                now2 = last.start + last.count * (u64::from(last.latency) + 20);
            }
            again.exit_hot_spot(0, now2);
        }
        assert_eq!(now, now2, "{kind}: fault runs must be reproducible");
        assert_eq!(mgr.recovery_stats(0), again.recovery_stats(0), "{kind}");
        assert_eq!(mgr.fabric().stats(), again.fabric().stats(), "{kind}");
    }
}
