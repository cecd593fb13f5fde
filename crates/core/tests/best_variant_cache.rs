//! Property test for the generation-keyed best-variant cache of
//! [`FabricArbiter`]: under arbitrary interleavings of hot-spot entries,
//! SI executions and time advances (which complete loads and evict atoms),
//! the memoised answer must equal a fresh `min_by_key` scan over the
//! variants available right now.

use proptest::prelude::*;
use rispp_core::FabricArbiter;
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;

fn library() -> SiLibrary {
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
    ) {
        let lib = library();
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
