//! Behavioural and property tests of the reconfigurable-fabric simulator.

use proptest::prelude::*;
use rispp_fabric::{
    ContainerState, Fabric, FabricConfig, FabricEvent, LoadCompleted, ReconfigPortConfig,
};
use rispp_model::{AtomTypeId, AtomTypeInfo, AtomUniverse, Molecule};

fn universe(n: usize) -> AtomUniverse {
    AtomUniverse::from_types((0..n).map(|i| AtomTypeInfo::new(format!("T{i}")))).unwrap()
}

fn fabric(containers: u16, types: usize) -> Fabric {
    Fabric::new(FabricConfig::prototype(containers), &universe(types))
}

/// Steps `f` to `now` and keeps the load completions.
fn advance(f: &mut Fabric, now: u64) -> Vec<LoadCompleted> {
    let mut events = Vec::new();
    f.advance_events_into(now, &mut events);
    events
        .into_iter()
        .filter_map(|e| match e {
            FabricEvent::Completed(done) => Some(done),
            _ => None,
        })
        .collect()
}

#[test]
fn loads_are_serialised_through_the_port() {
    let mut f = fabric(4, 2);
    f.enqueue_load(0, AtomTypeId(0), 0);
    f.enqueue_load(0, AtomTypeId(1), 0);
    let per_atom = ReconfigPortConfig::prototype().load_cycles(60_488).unwrap();
    // After one load time only the first atom is there.
    let ev = advance(&mut f, per_atom);
    assert_eq!(ev.len(), 1);
    assert_eq!(ev[0].atom, AtomTypeId(0));
    assert_eq!(f.available().counts(), &[1, 0]);
    // Second completes one load time later.
    let ev = advance(&mut f, 2 * per_atom);
    assert_eq!(ev.len(), 1);
    assert_eq!(f.available().counts(), &[1, 1]);
    assert!(f.is_idle());
    assert_eq!(f.stats().loads_completed, 2);
}

#[test]
fn per_atom_load_time_matches_paper_average() {
    let per_atom = ReconfigPortConfig::prototype().load_cycles(60_488).unwrap();
    // ~874 µs at 100 MHz = ~87,400 cycles.
    assert!((87_000..88_000).contains(&per_atom), "got {per_atom}");
}

#[test]
fn atoms_unavailable_while_loading() {
    let mut f = fabric(2, 1);
    f.enqueue_load(0, AtomTypeId(0), 0);
    advance(&mut f, 10);
    assert_eq!(f.available().counts(), &[0]);
    assert!(matches!(
        f.containers()[0].state(),
        ContainerState::Loading { .. }
    ));
    assert!(f.next_event_at().is_some());
}

#[test]
fn eviction_prefers_unprotected_lru() {
    let mut f = fabric(2, 3);
    f.enqueue_load(0, AtomTypeId(0), 0);
    f.enqueue_load(0, AtomTypeId(1), 0);
    advance(&mut f, 1_000_000);
    assert_eq!(f.available().counts(), &[1, 1, 0]);
    // Protect type 1; touch type 0 recently — eviction should still pick
    // type 0's container because type 1 is protected.
    f.set_protected(Molecule::from_counts([0, 1, 0]));
    f.mark_used(&Molecule::from_counts([1, 0, 0]), 999_999);
    f.enqueue_load(0, AtomTypeId(2), 0);
    advance(&mut f, 2_000_000);
    assert_eq!(f.available().counts(), &[0, 1, 1]);
    assert_eq!(f.stats().evictions, 1);
}

#[test]
fn eviction_falls_back_to_lru_when_everything_protected() {
    let mut f = fabric(2, 3);
    f.enqueue_load(0, AtomTypeId(0), 0);
    f.enqueue_load(0, AtomTypeId(1), 0);
    advance(&mut f, 1_000_000);
    f.set_protected(Molecule::from_counts([1, 1, 1]));
    f.mark_used(&Molecule::from_counts([1, 0, 0]), 500);
    f.mark_used(&Molecule::from_counts([0, 1, 0]), 900);
    f.enqueue_load(0, AtomTypeId(2), 0);
    advance(&mut f, 2_000_000);
    // Type 0 was used least recently -> evicted.
    assert_eq!(f.available().counts(), &[0, 1, 1]);
}

#[test]
fn clear_pending_keeps_in_flight_load() {
    let mut f = fabric(4, 2);
    f.enqueue_load(0, AtomTypeId(0), 0);
    f.enqueue_load(0, AtomTypeId(1), 0);
    advance(&mut f, 10);
    assert_eq!(f.pending_count(), 1);
    f.clear_pending(0);
    assert_eq!(f.pending_count(), 0);
    assert_eq!(f.stats().loads_cancelled, 1);
    // The in-flight atom still completes.
    let ev = advance(&mut f, 1_000_000);
    assert_eq!(ev.len(), 1);
    assert_eq!(f.available().counts(), &[1, 0]);
}

#[test]
fn single_container_fabric_replaces_its_atom() {
    let mut f = fabric(1, 2);
    f.enqueue_load(0, AtomTypeId(0), 0);
    f.enqueue_load(0, AtomTypeId(1), 0);
    let ev = advance(&mut f, 10_000_000);
    assert_eq!(ev.len(), 2);
    assert_eq!(f.available().counts(), &[0, 1]);
    assert_eq!(f.stats().evictions, 1);
}

#[test]
#[should_panic(expected = "monotone")]
fn time_cannot_move_backwards() {
    let mut f = fabric(1, 1);
    advance(&mut f, 100);
    advance(&mut f, 50);
}

#[test]
#[should_panic(expected = "outside universe")]
fn unknown_atom_type_panics() {
    let mut f = fabric(1, 1);
    f.enqueue_load(0, AtomTypeId(7), 0);
}

#[test]
fn port_busy_cycles_accumulate() {
    let mut f = fabric(2, 1);
    f.enqueue_load(0, AtomTypeId(0), 0);
    advance(&mut f, 10_000_000);
    let per_atom = ReconfigPortConfig::prototype().load_cycles(60_488).unwrap();
    assert_eq!(f.stats().port_busy_cycles, per_atom);
}

proptest! {
    /// The number of loaded atoms never exceeds the container count, the
    /// available vector always matches the per-container states, and events
    /// are chronological.
    #[test]
    fn fabric_invariants(
        loads in proptest::collection::vec(0u16..4, 1..40),
        containers in 1u16..8,
        step in 10_000u64..200_000,
    ) {
        let mut f = fabric(containers, 4);
        let mut last_event = 0u64;
        let mut completed = 0usize;
        for (i, &a) in loads.iter().enumerate() {
            f.enqueue_load(0, AtomTypeId(a), 0);
            let now = (i as u64 + 1) * step;
            for ev in advance(&mut f, now) {
                prop_assert!(ev.at >= last_event);
                prop_assert!(ev.at <= now);
                last_event = ev.at;
                completed += 1;
            }
            prop_assert!(u64::from(f.available().total_atoms() as u16) <= u64::from(containers));
            // Recompute availability from container states.
            let mut recount = [0u16; 4];
            for c in f.containers() {
                if let Some(atom) = c.loaded_atom() {
                    recount[atom.index()] += 1;
                }
            }
            prop_assert_eq!(f.available().counts(), &recount[..]);
        }
        // Drain everything.
        for ev in advance(&mut f, u64::from(u32::MAX)) {
            prop_assert!(ev.at >= last_event);
            last_event = ev.at;
            completed += 1;
        }
        prop_assert!(f.is_idle());
        prop_assert_eq!(completed as u64, f.stats().loads_completed);
        prop_assert_eq!(f.stats().loads_completed, loads.len() as u64);
    }
}
