//! Epoch-based plan-cache invalidation: quarantine and permanent tile
//! failure bump the fabric epoch, and the epoch is a plan-key word, so a
//! post-quarantine replan can never replay a pre-quarantine decision.
//! The safety property is phrased behaviourally — a cached manager must
//! be bit-identical to an uncached one through an arbitrary quarantine
//! cascade — plus structural pins on the epoch counter itself.

use proptest::prelude::*;
use rispp_core::{FabricArbiter, PlanCacheHandle, RecoveryPolicy, SchedulerKind};
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

/// Quarantine every tile via certain CRC aborts, then verify that the
/// epoch advanced once per quarantined container, that the degraded
/// post-quarantine plan replaced the stale hardware plan, and that
/// identical replans at the *stable* post-quarantine epoch do hit the
/// cache — the bump invalidates history, not memoisation itself.
///
/// Demands are pinned with `enter_hot_spot_with_profile`: the online
/// forecast evolves its expectations between entries, which (correctly)
/// changes the plan key, so the stable-key assertions here need the
/// oracle-profile path.
#[test]
fn quarantine_bumps_epoch_and_stale_plans_never_hit() {
    let lib = library();
    let handle = PlanCacheHandle::private();
    let mut mgr = FabricArbiter::builder(&lib)
        .containers(3)
        .plan_cache(handle.clone())
        .fault_model(FaultModel {
            seed: 5,
            crc_abort_ppm: PPM,
            ..FaultModel::default()
        })
        .recovery(RecoveryPolicy {
            max_retries: 2,
            backoff_base_cycles: 256,
            ..RecoveryPolicy::default()
        })
        .build();

    assert_eq!(mgr.fabric_epoch(), 0, "fresh fabric starts at epoch zero");
    let demands = [(SiId(0), 400u64)];
    mgr.enter_hot_spot_with_profile(0, HotSpotId(0), &demands, 0)
        .unwrap();
    let first = mgr.plan_cache_stats();
    assert!(first.misses >= 1, "first plan must be a cold miss: {first:?}");
    assert_eq!(first.hits, 0);
    assert!(
        !mgr.selected(0).is_empty(),
        "the healthy fabric selects a hardware Molecule"
    );

    // Let the abort/retry/quarantine cascade play out until the fabric
    // is fully dead (idiom from the recovery suite).
    mgr.execute_burst_into(0, SiId(0), 400, 25, 0, &mut Vec::new());
    mgr.exit_hot_spot(0, 200_000_000);
    mgr.enter_hot_spot_with_profile(0, HotSpotId(0), &demands, 200_000_001)
        .unwrap();
    mgr.advance_to(400_000_000);
    assert_eq!(mgr.fabric().usable_container_count(), 0);

    let epoch = mgr.fabric_epoch();
    assert_eq!(epoch, 3, "each of the 3 quarantined tiles bumps the epoch");
    let baseline = mgr.plan_cache_stats();
    assert_eq!(baseline.epoch_bumps, 3, "bumps are counted: {baseline:?}");
    // The stale epoch-0 hardware plan was NOT replayed across the bumps:
    // the dead fabric forced a fresh degraded selection.
    assert!(
        mgr.selected(0).is_empty(),
        "the dead fabric must carry the degraded plan, not the cached one"
    );

    // Identical replans at the now-stable epoch replay from the cache
    // (the cascade's own replan seeded the epoch-3 entry), while every
    // pre-bump entry stays unreachable by key construction.
    mgr.exit_hot_spot(0, 400_000_001);
    mgr.enter_hot_spot_with_profile(0, HotSpotId(0), &demands, 400_000_002)
        .unwrap();
    mgr.exit_hot_spot(0, 400_000_003);
    mgr.enter_hot_spot_with_profile(0, HotSpotId(0), &demands, 400_000_004)
        .unwrap();
    let after = mgr.plan_cache_stats();
    assert!(
        after.hits > baseline.hits,
        "stable-epoch replans must hit: {after:?} vs {baseline:?}"
    );
    assert!(
        after.misses <= baseline.misses + 1,
        "at most the first replan may still be cold: {after:?} vs {baseline:?}"
    );
    assert!(
        mgr.selected(0).is_empty(),
        "replayed plan is the degraded one"
    );
    assert_eq!(
        mgr.fabric_epoch(),
        epoch,
        "no further faults, no further bumps"
    );
}

/// Cross-manager sharing only matches plans at the *same* epoch and
/// fabric state: a fault-free manager sharing the cache of one that
/// lived through quarantines replays its healthy epoch-0 plan (a real
/// hit) and decides exactly what a cache-free manager would.
#[test]
fn shared_cache_matches_epochs_and_never_changes_decisions() {
    let lib = library();
    let handle = PlanCacheHandle::private();
    // Manager A plans at epoch 0 on a fresh fabric, then quarantines all
    // three tiles (epoch 3) and replans degraded.
    let mut a = FabricArbiter::builder(&lib)
        .containers(3)
        .plan_cache(handle.clone())
        .fault_model(FaultModel {
            seed: 5,
            crc_abort_ppm: PPM,
            ..FaultModel::default()
        })
        .build();
    let demands = [(SiId(0), 400u64)];
    a.enter_hot_spot_with_profile(0, HotSpotId(0), &demands, 0)
        .unwrap();
    a.execute_burst_into(0, SiId(0), 400, 25, 0, &mut Vec::new());
    a.exit_hot_spot(0, 200_000_000);
    a.enter_hot_spot_with_profile(0, HotSpotId(0), &demands, 200_000_001)
        .unwrap();
    a.advance_to(400_000_000);
    assert!(a.fabric_epoch() > 0);
    assert!(a.selected(0).is_empty(), "A ends degraded on a dead fabric");

    // Manager B shares the cache, is fault-free and sits at epoch 0 on a
    // fresh fabric — exactly the state of A's *first* plan. That healthy
    // entry (and only that one) is replayed: none of A's post-quarantine
    // plans can match, their epoch word differs.
    let mut b = FabricArbiter::builder(&lib)
        .containers(3)
        .plan_cache(handle.clone())
        .build();
    b.enter_hot_spot_with_profile(0, HotSpotId(0), &demands, 0)
        .unwrap();
    let stats = b.plan_cache_stats();
    assert_eq!(stats.hits, 1, "B replays A's epoch-0 plan: {stats:?}");
    assert_eq!(b.fabric_epoch(), 0);
    assert!(
        !b.selected(0).is_empty(),
        "B got the healthy hardware plan, not A's degraded epoch-3 plan"
    );

    // And the replayed decision equals a fully private manager's (no
    // shared cache at all) — sharing changed nothing about the outcome.
    let mut c = FabricArbiter::builder(&lib).containers(3).build();
    c.enter_hot_spot_with_profile(0, HotSpotId(0), &demands, 0)
        .unwrap();
    assert_eq!(b.selected(0), c.selected(0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Through an arbitrary fault cascade — including quarantines and the
    /// epoch bumps they trigger — a plan-cached manager is bit-identical
    /// to an uncached one: same burst segments, same fabric statistics,
    /// same recovery counters. A stale pre-quarantine plan sneaking
    /// through the cache would schedule atoms onto dead tiles and break
    /// this equality.
    #[test]
    fn cached_manager_is_bit_identical_through_quarantines(
        kind_index in 0usize..4,
        containers in 2u16..6,
        seed in 1u64..64,
        abort_index in 0usize..4,
        burst in 50u32..400,
    ) {
        let lib = library();
        let kind = SchedulerKind::ALL[kind_index];
        let abort_ppm = [0u32, PPM / 4, PPM / 2, PPM][abort_index];
        let model = FaultModel { seed, crc_abort_ppm: abort_ppm, ..FaultModel::default() };
        let mut cached = FabricArbiter::builder(&lib)
            .containers(containers)
            .scheduler(kind)
            .plan_cache(PlanCacheHandle::private())
            .fault_model(model)
            .build();
        let mut plain = FabricArbiter::builder(&lib)
            .containers(containers)
            .scheduler(kind)
            .fault_model(model)
            .build();

        let mut ends = [0u64; 2];
        for (slot, mgr) in [&mut cached, &mut plain].into_iter().enumerate() {
            let mut now = 0u64;
            let mut segments_log = Vec::new();
            for frame in 0..4u16 {
                mgr.enter_hot_spot(
                    0,
                    HotSpotId(frame % 2),
                    &[(SiId(0), u64::from(burst)), (SiId(1), 80)],
                    now,
                ).unwrap();
                for (si, count) in [(SiId(0), burst), (SiId(1), 80)] {
                    let mut segments = Vec::new();
                    mgr.execute_burst_into(0, si, count, 20, now, &mut segments);
                    let executed: u64 = segments.iter().map(|s| s.count).sum();
                    prop_assert_eq!(executed, u64::from(count));
                    let last = segments.last().unwrap();
                    now = last.start + last.count * (u64::from(last.latency) + 20);
                    segments_log.push(segments);
                }
                mgr.exit_hot_spot(0, now);
            }
            ends[slot] = now;
        }
        prop_assert_eq!(ends[0], ends[1], "cache must not change timing");
        prop_assert_eq!(cached.fabric().stats(), plain.fabric().stats());
        prop_assert_eq!(cached.recovery_stats(0), plain.recovery_stats(0));
        // Both managers saw the same faults, so the same bumps.
        prop_assert_eq!(cached.fabric_epoch(), plain.fabric_epoch());
        prop_assert_eq!(
            cached.fabric().stats().containers_quarantined,
            cached.fabric_epoch(),
            "exactly one bump per quarantined tile"
        );
    }
}
