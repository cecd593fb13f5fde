//! Regression guards for the LRU eviction bookkeeping: the *effective*
//! last-used stamp (per-type use marks folded with the container's own
//! load-completion mark) must be refreshed on *every* SI execution path —
//! single-step hardware execution, burst segments, and executions that
//! start on the software trap before a mid-burst upgrade — so a hot Atom
//! is never mistaken for a cold one.

use rispp_core::FabricArbiter;
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;

fn library() -> SiLibrary {
    let universe =
        AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")]).unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("FAST", 1_000)
        .unwrap()
        .molecule(Molecule::from_counts([1, 0]), 100)
        .unwrap();
    b.special_instruction("OTHER", 600)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1]), 80)
        .unwrap();
    b.build().unwrap()
}

/// Effective last-used stamp of every container holding the executed
/// variant's atoms.
fn used_stamps(mgr: &FabricArbiter<'_>, atom_index: usize) -> Vec<u64> {
    mgr.fabric()
        .containers()
        .iter()
        .filter(|c| c.loaded_atom().map(rispp_model::AtomTypeId::index) == Some(atom_index))
        .map(|c| mgr.fabric().effective_last_used(c))
        .collect()
}

#[test]
fn hardware_execute_si_refreshes_last_used() {
    let lib = library();
    let mut mgr = FabricArbiter::builder(&lib).containers(4).build();
    mgr.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 100)], 0)
        .unwrap();
    mgr.advance_to(10_000_000);

    let e = mgr.execute_si(0, SiId(0), 10_000_123);
    assert!(e.is_hardware());
    let stamps = used_stamps(&mgr, 0);
    assert!(!stamps.is_empty());
    assert!(
        stamps.iter().all(|&t| t == 10_000_123),
        "execution must stamp the containers it used: {stamps:?}"
    );
}

#[test]
fn software_trap_does_not_touch_last_used_but_counts_executions() {
    let lib = library();
    let mut mgr = FabricArbiter::builder(&lib).containers(4).build();
    mgr.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 100)], 0)
        .unwrap();
    // No atoms loaded yet: the SI traps to software.
    let e = mgr.execute_si(0, SiId(0), 50);
    assert!(!e.is_hardware());
    assert!(
        mgr.fabric()
            .containers()
            .iter()
            .all(|c| mgr.fabric().effective_last_used(c) == 0),
        "a trapped execution touches no hardware"
    );
    // The monitor still sees the execution (task II must not lose traps).
    assert_eq!(mgr.monitor(0).live_count(HotSpotId(0), SiId(0)), 1);
}

#[test]
fn burst_segments_refresh_last_used_at_segment_starts() {
    let lib = library();
    let mut mgr = FabricArbiter::builder(&lib).containers(4).build();
    mgr.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 500)], 0)
        .unwrap();
    // The burst starts in software (atoms still streaming) and upgrades
    // mid-burst once the load completes.
    let mut segments = Vec::new();
    mgr.execute_burst_into(0, SiId(0), 500, 25, 0, &mut segments);
    assert!(!segments[0].is_hardware(), "must start on the trap path");
    let hw: Vec<_> = segments.iter().filter(|s| s.is_hardware()).collect();
    assert!(!hw.is_empty(), "the load must upgrade the burst mid-flight");
    let last_hw_start = hw.last().unwrap().start;
    let stamps = used_stamps(&mgr, 0);
    assert!(!stamps.is_empty());
    assert!(
        stamps.iter().all(|&t| t == last_hw_start),
        "each hardware segment must re-stamp its containers at its start \
         (expected {last_hw_start}): {stamps:?}"
    );
    // And the trap prefix still reached the monitor as executions.
    assert_eq!(mgr.monitor(0).live_count(HotSpotId(0), SiId(0)), 500);
}

#[test]
fn recently_used_atom_is_not_the_eviction_victim() {
    let lib = library();
    // Two containers, two atom types: load A1 (for FAST), use it late, then
    // switch to a hot spot wanting A2. With a spare empty container the
    // eviction policy must fill the empty tile, not evict the hot A1.
    let mut mgr = FabricArbiter::builder(&lib).containers(2).build();
    mgr.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 100)], 0)
        .unwrap();
    mgr.advance_to(5_000_000);
    let e = mgr.execute_si(0, SiId(0), 5_000_000);
    assert!(e.is_hardware());

    mgr.exit_hot_spot(0, 5_000_001);
    mgr.enter_hot_spot(0, HotSpotId(1), &[(SiId(1), 100)], 5_000_002)
        .unwrap();
    mgr.advance_to(20_000_000);
    // Both SIs must now be in hardware: A1 survived on its tile while A2
    // went to the empty one.
    assert_eq!(mgr.available_atoms().counts(), &[1, 1]);
    assert_eq!(mgr.fabric().stats().evictions, 0);
}
