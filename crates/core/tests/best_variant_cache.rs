//! Tests of the per-SI best-variant memo of [`FabricArbiter`], keyed on
//! the counts of the atom types each SI's Molecules use: under arbitrary
//! interleavings of hot-spot entries, SI executions and time advances
//! (which complete loads and evict atoms), the memoised answer must equal
//! a fresh `min_by_key` scan over the variants available right now, on a
//! library without tied latencies and on one where a smaller and a larger
//! variant of an SI tie; and event by event, through loads and evictions
//! of types an SI does not use, of types it does, and a tile failure.

use proptest::prelude::*;
use rispp_core::FabricArbiter;
use rispp_fabric::fault::PPM;
use rispp_fabric::FaultModel;
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;

fn distinct_latencies() -> SiLibrary {
    let universe = AtomUniverse::from_types([
        AtomTypeInfo::new("A1"),
        AtomTypeInfo::new("A2"),
        AtomTypeInfo::new("A3"),
    ])
    .unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 1_000)
        .unwrap()
        .molecule(Molecule::from_counts([1, 0, 0]), 100)
        .unwrap()
        .molecule(Molecule::from_counts([2, 1, 0]), 30)
        .unwrap();
    b.special_instruction("Y", 800)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1, 0]), 90)
        .unwrap()
        .molecule(Molecule::from_counts([1, 2, 0]), 45)
        .unwrap()
        .molecule(Molecule::from_counts([0, 2, 1]), 40)
        .unwrap();
    b.special_instruction("Z", 600)
        .unwrap()
        .molecule(Molecule::from_counts([0, 0, 1]), 70)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1, 2]), 25)
        .unwrap();
    b.build().unwrap()
}

/// Each SI has a smaller and a larger variant of equal latency: X's
/// (1,0,0) and (1,1,0), Y's (0,1,0) and (0,2,1), Z's (0,1,1) and
/// (0,2,2); with both available, the first minimum is the smaller one.
fn tied_latencies() -> SiLibrary {
    let universe = AtomUniverse::from_types([
        AtomTypeInfo::new("A1"),
        AtomTypeInfo::new("A2"),
        AtomTypeInfo::new("A3"),
    ])
    .unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 1_000)
        .unwrap()
        .molecule(Molecule::from_counts([1, 1, 0]), 60)
        .unwrap()
        .molecule(Molecule::from_counts([1, 0, 0]), 60)
        .unwrap()
        .molecule(Molecule::from_counts([2, 1, 0]), 30)
        .unwrap();
    b.special_instruction("Y", 800)
        .unwrap()
        .molecule(Molecule::from_counts([0, 2, 1]), 45)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1, 0]), 45)
        .unwrap()
        .molecule(Molecule::from_counts([1, 2, 0]), 45)
        .unwrap();
    b.special_instruction("Z", 600)
        .unwrap()
        .molecule(Molecule::from_counts([0, 0, 1]), 70)
        .unwrap()
        .molecule(Molecule::from_counts([0, 2, 2]), 25)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1, 1]), 25)
        .unwrap();
    b.build().unwrap()
}

/// The ground truth the cache must reproduce: a fresh scan over the
/// variants available at this instant, with `min_by_key`'s first-minimum
/// tie-breaking.
fn fresh_best(library: &SiLibrary, available: &Molecule, si: SiId) -> Option<(usize, u32)> {
    library
        .si(si)
        .expect("si within library")
        .variants()
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_available(available))
        .min_by_key(|(_, v)| v.latency)
        .map(|(idx, v)| (idx, v.latency))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_best_variant_matches_fresh_scan(
        ops in proptest::collection::vec(
            (0usize..3, 0usize..3, 1u64..150_000, 1u64..1_000),
            1..40,
        ),
        containers in 1u16..7,
        tied in 0u8..2,
    ) {
        let lib = if tied == 1 { tied_latencies() } else { distinct_latencies() };
        let mut mgr = FabricArbiter::builder(&lib).containers(containers).build();
        let mut now = 0u64;
        for (op, si_idx, dt, weight) in ops {
            now += dt;
            let si = SiId(si_idx as u16);
            match op {
                // Hot-spot entry: reselects, clears the queue, enqueues a
                // new schedule (evictions + loads follow).
                0 => {
                    let hot_spot = HotSpotId((si_idx % 2) as u16);
                    let hints = [
                        (SiId(0), weight),
                        (SiId(1), 1_000 - weight.min(999)),
                        (SiId(2), weight / 2),
                    ];
                    mgr.enter_hot_spot(0, hot_spot, &hints, now).expect("valid library");
                }
                // SI execution: reads the cache on the hot path.
                1 => {
                    mgr.execute_si(0, si, now);
                }
                // Plain time advance: loads complete, atoms appear.
                _ => {
                    mgr.advance_to(now);
                }
            }
            for idx in 0..lib.len() {
                let probe = SiId(idx as u16);
                let expected = fresh_best(&lib, mgr.available_atoms(), probe);
                prop_assert_eq!(
                    mgr.best_available_variant(0, probe),
                    expected,
                    "cache diverged for SI {} after op {} at cycle {}",
                    idx,
                    op,
                    now
                );
            }
        }
    }
}

/// X uses A and B, Y uses C alone, Z uses B and D: the loads one SI's
/// plan makes move types another SI does not use.
fn apart_types() -> SiLibrary {
    let universe = AtomUniverse::from_types(["A", "B", "C", "D"].map(AtomTypeInfo::new)).unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 1_000)
        .unwrap()
        .molecule(Molecule::from_counts([1, 0, 0, 0]), 100)
        .unwrap()
        .molecule(Molecule::from_counts([1, 1, 0, 0]), 50)
        .unwrap()
        .molecule(Molecule::from_counts([2, 1, 0, 0]), 30)
        .unwrap();
    b.special_instruction("Y", 800)
        .unwrap()
        .molecule(Molecule::from_counts([0, 0, 1, 0]), 90)
        .unwrap()
        .molecule(Molecule::from_counts([0, 0, 2, 0]), 40)
        .unwrap();
    b.special_instruction("Z", 600)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1, 0, 1]), 60)
        .unwrap()
        .molecule(Molecule::from_counts([0, 2, 0, 2]), 20)
        .unwrap();
    b.build().unwrap()
}

/// Per SI: events that moved only types it does not use, and events that
/// moved one of its own.
#[derive(Debug, Default)]
struct Moves {
    foreign: [u32; 3],
    own: [u32; 3],
}

/// Compares every SI's memo with a fresh scan.
fn check(arb: &mut FabricArbiter<'_>, lib: &SiLibrary, at: u64) {
    for idx in 0..lib.len() {
        let si = SiId(idx as u16);
        let expected = fresh_best(lib, arb.available_atoms(), si);
        assert_eq!(
            arb.best_available_variant(0, si),
            expected,
            "memo of SI {idx} diverged at cycle {at}"
        );
    }
}

/// Steps `arb` one fabric event at a time up to `until`, checking every
/// memo after each, and tallies which types each event moved.
fn step(arb: &mut FabricArbiter<'_>, lib: &SiLibrary, until: u64, moves: &mut Moves) {
    while let Some(t) = arb.fabric().next_event_at().filter(|&t| t <= until) {
        let before = arb.available_atoms().clone();
        arb.advance_to(t);
        tally(lib, &before, arb.available_atoms(), moves);
        check(arb, lib, t);
    }
    arb.advance_to(until);
    check(arb, lib, until);
}

fn tally(lib: &SiLibrary, before: &Molecule, after: &Molecule, moves: &mut Moves) {
    let moved: Vec<usize> = (0..before.arity())
        .filter(|&t| before.count(t) != after.count(t))
        .collect();
    if moved.is_empty() {
        return;
    }
    for (k, si) in lib.iter().enumerate() {
        let uses = |t: usize| si.atom_types().iter().any(|&(a, _)| a.index() == t);
        if moved.iter().any(|&t| uses(t)) {
            moves.own[k] += 1;
        } else {
            moves.foreign[k] += 1;
        }
    }
}

/// Hot spots that demand one SI at a time (and one that demands two), on
/// three containers, so each plan's loads and evictions move types the
/// other SIs do not use; then the run goes on until a tile fails
/// (every tile fails inside the horizon) and its atom leaves. After every
/// event each memo must equal a fresh scan, and the run must have moved
/// every SI's own types and, in other events, only foreign ones.
#[test]
fn each_memo_follows_its_own_types_through_foreign_loads_and_a_failure() {
    let lib = apart_types();
    let (x, y, z) = (SiId(0), SiId(1), SiId(2));
    let script: [&[(SiId, u64)]; 6] = [
        &[(y, 100)],
        &[(x, 100)],
        &[(y, 100)],
        &[(z, 100)],
        &[(x, 100), (y, 50)],
        &[(z, 100)],
    ];
    for seed in 0..6 {
        let model = FaultModel {
            seed,
            permanent_failure_ppm: PPM,
            permanent_failure_horizon: 400_000_000,
            ..FaultModel::default()
        };
        let mut arb = FabricArbiter::builder(&lib)
            .containers(3)
            .fault_model(model)
            .build();
        let mut moves = Moves::default();
        let mut now = 0;
        for (k, demands) in script.iter().cycle().take(2 * script.len()).enumerate() {
            let before = arb.available_atoms().clone();
            arb.enter_hot_spot_with_profile(0, HotSpotId(k as u16 % 6), demands, now)
                .unwrap();
            tally(&lib, &before, arb.available_atoms(), &mut moves);
            check(&mut arb, &lib, now);
            now += 1_000_000;
            step(&mut arb, &lib, now, &mut moves);
            arb.exit_hot_spot(0, now);
        }
        while arb.recovery_stats(0).containers_quarantined == 0 {
            let t = arb
                .fabric()
                .next_event_at()
                .expect("every tile fails in the horizon");
            now = t;
            step(&mut arb, &lib, now, &mut moves);
        }
        step(&mut arb, &lib, now + 2_000_000, &mut moves);
        for k in 0..3 {
            assert!(
                moves.own[k] > 0,
                "seed {seed}: SI {k}'s own types never moved"
            );
            assert!(
                moves.foreign[k] > 0,
                "seed {seed}: no event moved only others' types"
            );
        }
    }
}
